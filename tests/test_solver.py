import dataclasses
import hashlib
import itertools
import json
import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from util import (
    SWEEP_HIT_OPTIMA,
    _solve_via_scipy,
    eight_cloud_instance,
    rand_instance,
    reference_zero_slack,
    sweep_hit_instance,
)
from vnfplan import heuristics, solver
from vnfplan.ilp import build_ilp
from vnfplan.model import ChainRequest, CloudNode, Infrastructure, Instance, VnfSpec
from vnfplan.rates import CAP_TOL, INFEASIBLE, RateTable, evaluate
from vnfplan.scenario import ScenarioConfig, build_instance
from vnfplan.solver import (
    METHODS,
    BruteForceCapError,
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
        oracle = brute_force(inst)
        assert pruned.status == oracle.status
        if pruned.solution is not None:
            assert pruned.solution.assignment == oracle.solution.assignment
            assert pruned.solution.objective == oracle.solution.objective


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


def test_only_an_infeasible_head_reports_first_vnf_placement():
    """The head check reads the chain heads' rates alone: an infinite rate
    further down the chain of an unvalidated instance is rejected by the
    search, not reported as a head that fits nowhere, and enumeration
    finds no placement either."""
    infra = Infrastructure(
        clouds=(CloudNode(0, 1e6), CloudNode(1, 1e6)),
        rrh_distances={"r0": {0: 0.0, 1: 1000.0}},
        cloud_distances={0: {0: 0.0, 1: 1000.0}, 1: {0: 1000.0, 1: 0.0}},
    )
    chain = ChainRequest(id="c0", service=None, rrh="r0",
                         vnfs=(VnfSpec(1.0, 1.0, 1.0), VnfSpec(math.inf, 1.0, 1.0)))
    inst = Instance(infra=infra, chains=(chain,))
    # A prebuilt table skips the validation that would reject the instance.
    table = RateTable(inst)
    res = solve_optimal(inst, table=table)
    oracle = brute_force(inst, table=table)
    assert (res.status, res.nodes, res.infeasible_reason) == ("infeasible", 2, None)
    assert (oracle.status, oracle.solution, oracle.infeasible_reason) == \
        ("infeasible", None, "latency")


def test_chains_of_equal_signature_share_one_row():
    """Chains of equal signature share one RateTable row, the object the
    root bounds group chains by, even when their VNF tuples are distinct
    objects."""
    infra = Infrastructure(
        clouds=(CloudNode(0, 1e6), CloudNode(1, 1e6)),
        rrh_distances={"r0": {0: 0.0, 1: 1000.0}, "r1": {0: 1000.0, 1: 0.0}},
        cloud_distances={0: {0: 0.0, 1: 1000.0}, 1: {0: 1000.0, 1: 0.0}},
    )
    first, second = (tuple(VnfSpec(1.0, 1.0, 1.0) for _ in range(2)) for _ in range(2))
    assert first == second and first is not second
    chains = (ChainRequest("c0", None, "r0", first), ChainRequest("c1", None, "r1", first),
              ChainRequest("c2", None, "r0", second))
    table = RateTable(Instance(infra=infra, chains=chains))
    assert [table.row(c.id).id for c in chains] == [0, 1, 0]
    assert table.row("c0") is table.row("c2")


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


@pytest.mark.parametrize("kwargs", [{"max_nodes": -5}, {"max_nodes": math.nan},
                                    {"max_nodes": math.inf}, {"max_nodes": -math.inf},
                                    {"max_nodes": 2.5}, {"time_limit": -1.0},
                                    {"time_limit": math.nan}],
                         ids=["max-nodes-negative", "max-nodes-nan", "max-nodes-inf",
                              "max-nodes-minus-inf", "max-nodes-fraction",
                              "time-limit-negative", "time-limit-nan"])
def test_search_budget_rejects_bad_limits(kwargs):
    with pytest.raises(ValueError):
        SearchBudget(**kwargs)


def test_search_budget_accepts_zero_and_infinite_limits():
    for kwargs in ({"max_nodes": 0}, {"time_limit": 0}, {"time_limit": 0.0},
                   {"time_limit": math.inf}):
        SearchBudget(**kwargs)
    assert type(SearchBudget(max_nodes=3.0).max_nodes) is int


def test_root_proof_is_lex_smallest_optimum():
    """A result proven by a feasible zero-slack placement is the placement
    brute_force returns: the lexicographically smallest optimum."""
    proven = 0
    for seed in (31, 32, 33):
        rng = random.Random(seed)
        for _ in range(40):
            inst = rand_instance(rng, num_edges=rng.choice([1, 2, 3]))
            if not inst.chains:
                continue
            table = RateTable(inst)
            if not evaluate(inst, solver._zero_slack(inst, table), table).feasible:
                continue
            res = solve_optimal(inst)
            assert (res.status, res.nodes) == ("optimal", 0)
            proven += 1
            oracle = brute_force(inst)
            assert oracle.status == "optimal"
            assert res.solution.assignment == oracle.solution.assignment
            assert res.solution.objective == oracle.solution.objective
    assert proven >= 20


def test_zero_slack_matches_the_walk_over_split():
    """The root proof's paths, computed one tested penalty at a time, are
    the paths of the walk over RateTable.split."""
    rng = random.Random(2801)
    instances = [rand_instance(rng, num_edges=rng.choice([1, 2, 3])) for _ in range(320)]
    for sites, size, d0, ce in itertools.product(("center", "all"), (4, 7, 11),
                                                 (30_000.0, 45_000.0, 90_000.0),
                                                 (1500.0, 4480.0)):
        instances.append(build_instance(ScenarioConfig(edge_sites=sites), d0_m=d0, size=size,
                                        edge_capacity=ce))
    moved = 0
    for inst in instances:
        path = solver._zero_slack(inst, RateTable(inst))
        assert path == reference_zero_slack(inst, RateTable(inst))
        moved += any(len(set(clouds)) > 1 for clouds in path.vectors.values())
    assert moved >= 100


def test_warm_start_from_b_first():
    """Where capacity defeats the zero-slack root proof and b_first places
    every chain, a one-node search already returns b_first's deployment
    or a cheaper one, and the full search still finds the optimum."""
    warm = 0
    rng = random.Random(41)
    for _ in range(80):
        inst = rand_instance(rng)
        table = RateTable(inst)
        greedy = heuristics.b_first(inst, table=table)
        if len(greedy.accepted_ids) < len(inst.chains) or \
                evaluate(inst, solver._zero_slack(inst, table), table).feasible:
            continue
        res = solve_optimal(inst)
        warm += 1
        assert res.status == "optimal"
        oracle = brute_force(inst)
        assert math.isclose(res.solution.objective, oracle.solution.objective,
                            rel_tol=1e-9, abs_tol=1e-9)
        first = solve_optimal(inst, budget=SearchBudget(max_nodes=1))
        assert first.status == "feasible-incumbent"
        assert first.solution.feasible
        assert first.solution.objective <= greedy.solution.objective
    assert warm >= 20


def test_unimproved_warm_start_is_b_first_own_solution(monkeypatch):
    """A warm start the search does not improve is returned as b_first's
    Solution, not decoded and evaluated again: the only evaluate of the
    solve is the zero-slack check."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)
    monkeypatch.setattr(solver, "evaluate", counted)
    inst = build_instance(ScenarioConfig(edge_sites="center", seed=0), size=11)
    res = solve_optimal(inst, budget=SearchBudget(max_nodes=1, time_limit=math.inf))
    assert (res.status, res.nodes) == ("feasible-incumbent", 2)
    assert res.solution == heuristics.b_first(inst).solution
    assert len(calls) == 1


@pytest.mark.parametrize("size", (5, 7, 9, 11))
def test_root_proof_settles_eight_cloud_ladder(size):
    # The benchmark's exact ladder: at every edge site the edge clouds are
    # large enough for the capacity-free optimum.
    for seed in range(3):
        inst = build_instance(ScenarioConfig(edge_sites="all", seed=seed),
                              d0_m=45_000.0, size=size)
        res = solve_optimal(inst, budget=SearchBudget(max_nodes=20_000,
                                                      time_limit=math.inf))
        assert (res.status, res.nodes) == ("optimal", 0), seed
        assert res.solution.feasible


# The benchmark's exact ladder keeps its HiGHS optima here, in the order
# edge sites (center, all) x S (5, 7, 9, 11) x scenario seeds 0-2.
LADDER_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "ladder_reference.json"


@pytest.mark.parametrize("size", (7, 9, 11))
def test_priced_bound_proves_two_cloud_ladder(size):
    # On two clouds the edge capacity decides the optimum, so the root
    # proof fails and only the capacity-priced bound closes the gap.
    optima = json.loads(LADDER_REFERENCE.read_text(encoding="utf-8"))["ladder"]
    for seed in range(3):
        inst = build_instance(ScenarioConfig(edge_sites="center", seed=seed),
                              d0_m=45_000.0, size=size)
        res = solve_optimal(inst, budget=SearchBudget(max_nodes=20_000,
                                                      time_limit=math.inf))
        assert res.status == "optimal", seed
        expected = optima[3 * (5, 7, 9, 11).index(size) + seed]["objective"]
        assert math.isclose(res.solution.objective, expected, rel_tol=1e-9), seed


def _knapsack_inputs(inst: Instance):
    """The rows and capacities that solve_optimal hands _knapsack_bound."""
    table = RateTable(inst)
    rows = Counter(table.row(chain.id) for chain in heuristics.packing_order(inst, table))
    return rows, [inst.infra.capacity(k) + CAP_TOL for k in inst.infra.cloud_ids()]


def test_best_bound_never_exceeds_brute_force(monkeypatch):
    """best_bound is a proven lower bound: never above brute force's
    optimum, the objective itself when the status is optimal, and None
    for an infeasible instance.  Each priced bound L(lam) that
    solve_optimal builds, and the knapsack bound for every choice of the
    cloud kept exact, are held to the same."""
    priced = []

    def recording(*args):
        out = real(*args)
        if out is not None:
            priced.append(out[3])
        return out

    real = solver._priced_bound
    monkeypatch.setattr(solver, "_priced_bound", recording)
    stopped = checked = knapsacks = 0
    for seed in (61, 62, 63):
        rng = random.Random(seed)
        for _ in range(40):
            inst = rand_instance(rng, max_chains=4, num_edges=rng.choice([1, 2, 3]))
            oracle = brute_force(inst)
            if oracle.status != "optimal":
                assert oracle.best_bound is None
                assert solve_optimal(inst).best_bound is None
                continue
            opt = oracle.solution.objective
            assert oracle.best_bound == opt
            rows, caps = _knapsack_inputs(inst)
            for c in range(len(caps)):
                knapsacks += 1
                assert solver._knapsack_bound(rows, caps, c, 10**9) <= opt * (1 + 1e-9)
            for max_nodes in (1, 10_000_000):
                priced.clear()
                res = solve_optimal(inst, budget=SearchBudget(max_nodes=max_nodes))
                if res.status == "optimal":
                    assert res.best_bound == res.solution.objective
                else:
                    stopped += 1
                    assert res.status in ("feasible-incumbent", "budget-exhausted")
                    assert res.best_bound <= opt * (1 + 1e-9)
                for bound in priced:
                    checked += 1
                    assert bound <= opt * (1 + 1e-9)
    assert stopped >= 20
    assert checked >= 20
    assert knapsacks >= 100


def test_priced_bound_stops_on_a_zero_subgradient():
    """No capacity binds, so every price stays 0, the subgradient is zero
    and the first step is the last: L(0) is the capacity-free optimum."""
    cfg = ScenarioConfig(edge_sites="center", seed=0, central_capacity=UNCAPPED)
    inst = build_instance(cfg, d0_m=45_000.0, size=5, edge_capacity=UNCAPPED)
    table = RateTable(inst)
    variables = [(table.row(chain.id), n) for chain in heuristics.packing_order(inst, table)
                 for n in range(1, len(chain.vnfs) + 1)]
    rows = Counter(row for row, n in variables if n == 1)
    caps = [UNCAPPED + CAP_TOL] * 2
    opt = solve_optimal(inst, table=table).solution.objective
    mult, _, _, bound = solver._priced_bound(rows, variables, caps, 2 * opt, 10**7)
    assert mult == [1.0, 1.0]
    assert math.isclose(bound, opt, rel_tol=1e-9)


def _enumerated_knapsack(options, c, cap):
    """The knapsack bound by enumeration: options lists, per chain, the
    (loads by cloud index, cost) of each placement."""
    unit = cap / solver._UNITS
    total = {0: 0.0}
    for placements in options:
        least: dict[int, float] = {}
        for loads, cost in placements:
            if loads[c] <= cap:
                u = int(loads[c] / unit)
                least[u] = min(least.get(u, INFEASIBLE), cost)
        grown: dict[int, float] = {}
        for a, x in total.items():
            for u, y in least.items():
                if a + u <= solver._UNITS:
                    grown[a + u] = min(grown.get(a + u, INFEASIBLE), x + y)
        total = grown
    return min(total.values(), default=INFEASIBLE)


def test_knapsack_bound_equals_enumeration():
    """The DP's frontier is exact: the bound equals a min-plus combination
    of every placement of every chain, each with its load on the cloud
    kept exact floored to units, as the rate table prices them.  The
    capacities tried bind at every depth: loads that single placements
    put on that cloud, and shares of the most all chains can put there."""
    rng = random.Random(71)
    cases = [rand_instance(rng, max_chains=2, num_edges=rng.choice([1, 2]))
             for _ in range(30)]
    cases += [sweep_hit_instance(0),
              build_instance(ScenarioConfig(edge_sites="center", seed=0),
                             d0_m=45_000.0, size=7)]
    compared = binding = 0
    for inst in cases:
        table = RateTable(inst)
        clouds = list(inst.infra.cloud_ids())
        rows, _ = _knapsack_inputs(inst)
        options = []
        for chain in inst.chains:
            placements = []
            for combo in itertools.product(clouds, repeat=len(chain.vnfs)):
                rates = table.chain_rates(chain.id, combo)
                if INFEASIBLE not in rates:
                    placements.append(([sum(r for k, r in zip(combo, rates) if k == j)
                                        for j in clouds], sum(rates)))
            options.append(placements)
        if not all(options):
            continue
        free = sum(min(cost for _, cost in placements) for placements in options)
        for c in range(len(clouds)):
            loads = sorted({ld[c] for placements in options for ld, _ in placements} - {0.0})
            most = sum(max(ld[c] for ld, _ in placements) for placements in options)
            for cap in loads[::max(1, len(loads) // 12)] + [most / 4, most / 2, 3 * most / 4]:
                expected = _enumerated_knapsack(options, c, cap)
                bound = solver._knapsack_bound(rows, [cap] * len(clouds), c, 10**9)
                if expected == INFEASIBLE:
                    assert bound == INFEASIBLE
                    continue
                compared += 1
                binding += expected > free * (1 + 1e-9)
                assert math.isclose(bound, expected, rel_tol=1e-12), (c, cap)
    assert compared >= 300
    assert binding >= 150


def _one_vnf_chains(*gflops):
    """One-VNF chains of the given GFLOPS on a central cloud and an edge
    cloud of capacity 2000 next to their RRH, 20 km apart."""
    infra = Infrastructure(
        clouds=(CloudNode(0, 1e6), CloudNode(1, 2000.0)),
        rrh_distances={"r0": {0: 20_000.0, 1: 0.0}},
        cloud_distances={0: {0: 0.0, 1: 20_000.0}, 1: {0: 20_000.0, 1: 0.0}},
    )
    chains = tuple(ChainRequest(id=f"c{i}", service=None, rrh="r0",
                                vnfs=(VnfSpec(g, 1.0, 1.0),))
                   for i, g in enumerate(gflops))
    return Instance(infra=infra, chains=chains)


def test_knapsack_bound_with_the_binding_cloud_full():
    """Units are floored, so a placement that fills the cloud kept exact
    to its capacity still counts as fitting: the bound reaches the
    optimum without passing it, and proves it at the root."""
    # A one-VNF chain of g GFLOPS needs 1000 g at the edge cloud 1, next
    # to its RRH, and 1000 g / 0.9 at cloud 0, 20 km away.  The three
    # heaviest chains fill the edge exactly, at 21.5, 21.25 and 21.25
    # units of 2000 / 64: their floors fit in 64 units, their ceilings
    # would not.
    inst = _one_vnf_chains(0.671875, 0.6640625, 0.6640625, 0.4)
    opt = brute_force(inst).solution
    assert opt.loads[1] == inst.infra.capacity(1)
    bound = solver._knapsack_bound(*_knapsack_inputs(inst), 1, 10**9)
    assert opt.objective * (1 - 1e-9) <= bound <= opt.objective * (1 + 1e-9)
    res = solve_optimal(inst)
    assert (res.status, res.nodes) == ("optimal", 0)
    assert res.solution.objective == opt.objective


def test_knapsack_bound_gives_up_past_a_quarter_of_the_budget():
    # On this sweep instance the DP's estimate is 448 entries and it makes
    # about a thousand: 2_000 nodes let it start, but not finish.
    rows, caps = _knapsack_inputs(sweep_hit_instance(0))
    for max_nodes in (0, 4, 400, 2_000):
        assert solver._knapsack_bound(rows, caps, 1, max_nodes) is None
    assert solver._knapsack_bound(rows, caps, 1, 20_000) is not None
    # On 8 clouds the estimate alone passes a quarter of 20k nodes.
    cfg = ScenarioConfig(edge_sites="all", seed=0, edge_capacity=1500.0)
    rows, caps = _knapsack_inputs(build_instance(cfg, d0_m=45_000.0, size=7))
    assert all(solver._knapsack_bound(rows, caps, c, 20_000) is None
               for c in range(len(caps)))


def test_knapsack_bound_counts_the_head_pairs():
    """The head's (load, cost) pairs count toward the budget like any
    other VNF's: one pair per head cloud, then one convolution step per
    frontier entry, 4 nodes in all for a one-VNF chain on two clouds."""
    rows, caps = _knapsack_inputs(_one_vnf_chains(0.6))
    assert solver._knapsack_bound(rows, caps, 1, 8) is None
    assert solver._knapsack_bound(rows, caps, 1, 16) == 600.0


def test_root_bounds_give_up_without_building_children():
    """Both bounds estimate their work from the VNF counts of the rows, so
    a budget too small for them builds no child list."""
    inst = eight_cloud_instance(7, 1500.0)
    table = RateTable(inst)
    variables = [(table.row(chain.id), n) for chain in heuristics.packing_order(inst, table)
                 for n in range(1, len(chain.vnfs) + 1)]
    rows = Counter(row for row, n in variables if n == 1)
    caps = [inst.infra.capacity(k) + CAP_TOL for k in table.cloud_ids]
    for max_nodes in (0, 1_000, 20_000):
        assert solver._knapsack_bound(rows, caps, 0, max_nodes) is None
    for max_nodes in (0, 1_000):
        assert solver._priced_bound(rows, variables, caps, 1e9, max_nodes) is None
    for row in rows:
        assert not vars(row).keys() & {"children", "cheapest_first"}
        assert not vars(row.body).keys() & {"children", "cheapest_first"}


@pytest.mark.parametrize("rep", range(3))
def test_knapsack_bound_proves_sweep_hits(rep):
    """The sweep's S=8, d0 = 30 km, Ce = 2240 points, where b_first's
    placement is optimal but the priced bound stops short of it."""
    res = solve_optimal(sweep_hit_instance(rep),
                        budget=SearchBudget(max_nodes=20_000, time_limit=math.inf))
    assert (res.status, res.nodes) == ("optimal", 0)
    assert math.isclose(res.solution.objective, SWEEP_HIT_OPTIMA[rep], rel_tol=1e-12)
    assert res.best_bound == res.solution.objective


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


def test_brute_force_cap(monkeypatch):
    rng = random.Random(3)
    inst = rand_instance(rng, max_chains=3, max_vnfs=4)
    monkeypatch.setattr(solver, "BRUTE_FORCE_CAP", 2)
    with pytest.raises(BruteForceCapError, match="exceeds cap 2$"):
        brute_force(inst)


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


def test_max_accepted_prefix():
    inst = _three_chain_capacity_instance()
    count, out = max_accepted_chains(inst, method="optimal")
    assert count == 1
    assert out.accepted == 1 and out.status == "optimal"
    # The same names as `vnfplan solve`: aliases in, cran-only out.
    expected = max_accepted_chains(inst, method="b_first")
    for alias in ("b-first", "bfirst", "B_FIRST"):
        assert max_accepted_chains(inst, method=alias) == expected
    for name in ("mystery", "cran-only", "cran_only"):
        with pytest.raises(ValueError, match="unknown method"):
            max_accepted_chains(inst, method=name)
    # The greedy's acceptance is not monotone in the prefix length: it
    # refuses the 4- and 5-chain prefixes here but places all 6 chains.
    rng = random.Random(1462)
    inst = rand_instance(rng, max_chains=6, max_vnfs=3, num_edges=rng.choice([1, 2]))
    count, out = max_accepted_chains(inst, method="b_first")
    assert count == len(inst.chains) == 6 and out.status == "feasible"


@pytest.mark.parametrize("ce, accepted", ((2240.0, 3), (4480.0, 6)))
@pytest.mark.parametrize("rep", range(3))
def test_sweep_prefix_proven_infeasible(ce, accepted, rep):
    """The sweep's d0 = 90 km points: an URLLC2 chain fits neither cloud
    alone, and branching it first proves the failing prefix infeasible
    long before the sweep's node budget."""
    inst = build_instance(ScenarioConfig(edge_sites="center", seed=11), d0_m=90_000,
                          size=8, edge_capacity=ce, seed=11 * 100003 + rep)
    budget = SearchBudget(max_nodes=20_000, time_limit=math.inf)
    assert max_accepted_chains(inst, budget=budget)[0] == accepted
    ids = [c.id for c in inst.chains]
    res = solve_optimal(inst.subset(ids[:accepted + 1]), budget=budget)
    assert res.status == "infeasible"
    assert res.nodes <= 1_000


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_chain_order_does_not_change_proven_result(seed):
    rng = random.Random(seed)
    inst = rand_instance(rng, max_chains=4, max_vnfs=3, num_edges=rng.choice([0, 1, 2]))
    res = solve_optimal(inst)
    if res.status not in ("optimal", "infeasible"):
        return
    chains = list(inst.chains)
    rng.shuffle(chains)
    permuted = solve_optimal(dataclasses.replace(inst, chains=tuple(chains)))
    assert permuted.status == res.status
    if res.solution is not None:
        assert math.isclose(permuted.solution.objective, res.solution.objective,
                            rel_tol=1e-9)


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
    # solve_optimal warm-starts from b_first when the root proof fails.
    assert calls == ["solve_optimal", "b_first", "brute_force", "b_first",
                     "fixed_split", "fixed_service"]


def test_max_accepted_all_methods_on_feasible_instance():
    rng = random.Random(55)
    while True:
        inst = rand_instance(rng, max_chains=2, max_vnfs=3)
        if brute_force(inst).status == "optimal":
            break
    n = len(inst.chains)
    assert max_accepted_chains(inst, method="optimal")[0] == n
    assert max_accepted_chains(inst, method="brute")[0] == n
    assert 0 <= max_accepted_chains(inst, method="b_first")[0] <= n


def test_solution_loads_match_rates():
    # Seed 14's first instance is infeasible, so several are checked.
    rng = random.Random(14)
    solved = 0
    for _ in range(10):
        inst = rand_instance(rng)
        table = RateTable(inst)
        sol = solve_optimal(inst, table=table).solution
        if sol is None:
            continue
        solved += 1
        assert sorted(sol.rates) == sorted(sol.assignment.vectors) \
            == sorted(c.id for c in inst.chains)
        recomputed = {k: 0.0 for k in inst.infra.cloud_ids()}
        for cid, vector in sol.assignment.vectors.items():
            assert sol.rates[cid] == tuple(table.chain_rates(cid, vector))
            for k, rate in zip(vector, sol.rates[cid]):
                recomputed[k] += rate
        for k, load in sol.loads.items():
            assert math.isclose(load, recomputed[k], rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(sol.objective, sum(sol.loads.values()),
                            rel_tol=1e-12, abs_tol=1e-12)
    assert solved >= 3


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
            assert shared == own, m


def test_deep_instance_does_not_recurse():
    # 200 chains are 1600 search variables, one per VNF.  Capacity binds,
    # so the root proof fails, and b_first places every chain, so the
    # search starts from its placement.
    cfg = ScenarioConfig(edge_sites="all", seed=0, central_capacity=40_000.0,
                         edge_capacity=30_000.0)
    inst = build_instance(cfg, size=200)
    res = solve_optimal(inst, budget=SearchBudget(max_nodes=20_000, time_limit=math.inf))
    assert (res.status, res.nodes) == ("feasible-incumbent", 20_001)
    assert res.solution.feasible
    # Only a leaf, 1600 variables deep, can beat the warm start.
    assert res.solution.objective < heuristics.b_first(inst).solution.objective


def test_time_limit_is_read_every_512_nodes():
    # Capacity binds on eight clouds, so the root proof fails and the
    # search runs, warm-started from b_first; it runs out a 20k-node budget.
    res = solve_optimal(eight_cloud_instance(7, 1500.0), budget=SearchBudget(time_limit=0.0))
    assert res.status == "feasible-incumbent"
    assert res.nodes == 512


def test_bounds_read_children_by_cloud_index():
    """The priced bound indexes its tables by position in
    ChainRow.children; handed the cheapest-first lists it prunes
    placements it should not, and a larger budget, which runs more price
    steps, returns a worse placement."""
    for edge_capacity in (1500.0, 2240.0):
        inst = eight_cloud_instance(7, edge_capacity, seed=2)
        small, large = (solve_optimal(inst, budget=SearchBudget(max_nodes=n, time_limit=math.inf))
                        for n in (20_000, 200_000))
        assert large.solution.objective <= small.solution.objective, edge_capacity


def test_cheapest_first_proves_an_eight_cloud_optimum():
    """Tried cheapest first, the search proves an 8-cloud instance that
    capacity binds, within 20k nodes; HiGHS agrees on the optimum."""
    inst = eight_cloud_instance(7, 2240.0)
    res = solve_optimal(inst, budget=SearchBudget(max_nodes=20_000, time_limit=math.inf))
    assert res.status == "optimal"
    assert 0 < res.nodes <= 20_000
    pytest.importorskip("scipy")
    sci = _solve_via_scipy(build_ilp(inst), mip_rel_gap=0.0)
    assert sci.status == 0, sci.message
    assert math.isclose(res.solution.objective, sci.fun, rel_tol=1e-9)


# The golden search corpus pins what the branch and bound visits, not only
# what it returns: status, node count, infeasible reason, objective, best
# bound and the full placement of every case.  Cases are seeded scenario
# instances (both edge layouts, uncapacitated and capacity-bound) plus
# random instances, each at several node budgets.
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
        placement = {cid: list(v) for cid, v in sol.assignment.vectors.items()}
    return {"status": res.status, "nodes": res.nodes,
            "infeasible_reason": res.infeasible_reason,
            "objective": sol.objective if sol is not None else None,
            "placement": placement, "best_bound": res.best_bound}


def golden_search_results() -> dict:
    results = {}
    for name, inst in golden_search_instances().items():
        for max_nodes in SEARCH_BUDGETS:
            res = solve_optimal(inst, budget=SearchBudget(max_nodes=max_nodes,
                                                          time_limit=math.inf))
            results[f"{name}/n{max_nodes}/lb"] = _search_record(res)
    return results


def test_search_matches_golden_corpus():
    golden = json.loads(GOLDEN_SEARCH.read_text(encoding="utf-8"))
    results = golden_search_results()
    assert sorted(results) == sorted(golden)
    for case, expected in golden.items():
        assert results[case] == expected, case


def test_priced_bound_is_the_same_with_shared_bodies():
    """Rows of one VNF list share their priced tables from VNF 3 on; the
    bound matches the one priced from rows that share nothing, bit for
    bit.  Random instances whose chains all hold
    one VNF list at RRHs of their own, so head rates differ by row."""
    rng = random.Random(8)
    priced = 0
    for _ in range(400):
        inst = rand_instance(rng, max_chains=4, max_vnfs=5, num_edges=rng.choice([1, 2, 3]))
        vnfs = max((chain.vnfs for chain in inst.chains), key=len)
        inst = Instance(inst.infra, tuple(dataclasses.replace(chain, vnfs=vnfs)
                                          for chain in inst.chains))
        table = RateTable(inst)
        variables = [(table.row(chain.id), n) for chain in heuristics.packing_order(inst, table)
                     for n in range(1, len(chain.vnfs) + 1)]
        rows = Counter(row for row, n in variables if n == 1)
        if any(min(row.first) == INFEASIBLE for row in rows):
            continue    # solve_optimal stops before its bounds
        # The same rows, each from a table of its own, so with a body of its own.
        alone = {table.row(chain.id): RateTable(Instance(inst.infra, (chain,))).row(chain.id)
                 for chain in inst.chains}
        caps = [inst.infra.capacity(k) + CAP_TOL for k in table.cloud_ids]
        target = 1.5 * sum(min(row.first) + sum(row.colo[1:]) for row in rows.elements())
        mult, rest, later, bound = solver._priced_bound(rows, variables, caps, target, 10**9)
        own = solver._priced_bound(Counter({alone[row]: count for row, count in rows.items()}),
                                   [(alone[row], n) for row, n in variables], caps, target, 10**9)
        priced += max(mult) > 1.0
        assert (mult, later, bound) == (own[0], own[2], own[3])
        assert _readable(variables, rest) == _readable(variables, own[1])
    assert priced > 50


def _readable(variables, rest):
    """_priced_bound's rest where the search can read it: rest[t][j][k]
    where variable t has a feasible child k after cloud j, else None."""
    return [[[x if row.children[n][j][k][1] != INFEASIBLE else None for k, x in enumerate(by_k)]
             for j, by_k in enumerate(table)] for (row, n), table in zip(variables, rest)]


# The root bounds of the 12 center-layout instances of the benchmark's
# quality ladder (S 5/7/9/11, scenario seeds 0-2, d0 45 km), which have two
# clouds, and of 20 random draws on three or four, at a 20k-node budget,
# as float.hex: each _knapsack_bound value and each
# _priced_bound (mult, later, bound) that solve_optimal computes, with a
# sha256 of the entries of the priced tables rest that the search can read
# (see _readable).  best_bound is only their max, so the search corpus
# above could hide a changed bound.
GOLDEN_ROOT_BOUNDS = Path(__file__).resolve().parent / "data" / "golden_root_bounds.json"


def _hex(value):
    if isinstance(value, (list, tuple)):
        return [_hex(x) for x in value]
    return None if value is None else float.hex(value)


def golden_root_bounds(monkeypatch) -> dict:
    calls: list = []
    knapsack, priced = solver._knapsack_bound, solver._priced_bound

    def record_knapsack(*args):
        bound = knapsack(*args)
        calls.append({"knapsack": _hex(bound)})
        return bound

    def record_priced(*args):
        out = priced(*args)
        if out is None:
            calls.append({"priced": None})
        else:
            mult, rest, later, bound = out
            digest = hashlib.sha256(repr(_hex(_readable(args[1], rest))).encode()).hexdigest()
            calls.append({"priced": {"mult": _hex(mult), "later": _hex(later),
                                     "bound": _hex(bound), "rest_sha256": digest}})
        return out

    monkeypatch.setattr(solver, "_knapsack_bound", record_knapsack)
    monkeypatch.setattr(solver, "_priced_bound", record_priced)
    results = {}
    for size in (5, 7, 9, 11):
        for rep in range(3):
            inst = build_instance(ScenarioConfig(edge_sites="center", seed=rep),
                                  d0_m=45_000.0, size=size)
            calls.clear()
            solve_optimal(inst, budget=SearchBudget(max_nodes=20_000, time_limit=math.inf))
            results[f"center-S{size}-seed{rep}"] = list(calls)
    # The first 20 rand_instance draws on 3 or 4 clouds on which a bound
    # returns a value; on the others neither bound runs or both give up.
    rng, draw = random.Random(1), 0
    while sum(key.startswith("rand-") for key in results) < 20:
        inst = rand_instance(rng, num_edges=rng.choice([2, 3]))
        calls.clear()
        solve_optimal(inst, budget=SearchBudget(max_nodes=20_000, time_limit=math.inf))
        if any(value is not None for call in calls for value in call.values()):
            results[f"rand-{draw}"] = list(calls)
        draw += 1
    monkeypatch.undo()
    return results


def test_root_bounds_match_golden(monkeypatch):
    golden = json.loads(GOLDEN_ROOT_BOUNDS.read_text(encoding="utf-8"))
    assert golden_root_bounds(monkeypatch) == golden
    assert any(call.get("priced") for calls in golden.values() for call in calls)


if __name__ == "__main__" and sys.argv[1:] == ["--record-golden-search"]:
    # Rewrites the corpus; run as
    #   PYTHONPATH=src:tests python tests/test_solver.py --record-golden-search
    GOLDEN_SEARCH.write_text(json.dumps(golden_search_results(), indent=0, sort_keys=True)
                             + "\n", encoding="utf-8")

if __name__ == "__main__" and sys.argv[1:] == ["--record-root-bounds"]:
    # Rewrites the root bounds; run as
    #   PYTHONPATH=src:tests python tests/test_solver.py --record-root-bounds
    GOLDEN_ROOT_BOUNDS.write_text(json.dumps(golden_root_bounds(pytest.MonkeyPatch()), indent=0,
                                             sort_keys=True) + "\n", encoding="utf-8")
