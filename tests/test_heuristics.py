import dataclasses
import math
import random

import pytest

from util import rand_instance
from vnfplan.heuristics import PlacementEvent, b_first, fixed_service, fixed_split
from vnfplan.model import ChainRequest, CloudNode, Infrastructure, Instance, VnfSpec
from vnfplan.rates import CAP_TOL, INFEASIBLE, RateTable, evaluate
from vnfplan.scenario import ScenarioConfig, build_instance
from vnfplan.solver import solve_optimal


def test_accepted_deployment_is_feasible():
    rng = random.Random(11)
    for _ in range(30):
        inst = rand_instance(rng)
        res = b_first(inst)
        assert res.solution.feasible
        assert set(res.accepted_ids) <= {c.id for c in inst.chains}
        for k in inst.infra.cloud_ids():
            assert res.solution.loads[k] <= inst.infra.capacity(k) + CAP_TOL


def test_evaluation_budget():
    rng = random.Random(12)
    for _ in range(30):
        inst = rand_instance(rng)
        res = b_first(inst)
        k_plus_1 = len(inst.infra.cloud_ids())
        total = sum(len(c.vnfs) for c in inst.chains)
        assert res.evaluations <= k_plus_1 * k_plus_1 * total


def test_chains_packed_in_decreasing_demand_order():
    rng = random.Random(13)
    inst = rand_instance(rng, max_chains=3)
    table = RateTable(inst)
    res = b_first(inst)
    seen = [e.chain_id for e in res.events]
    expected = [c.id for c in sorted(inst.chains,
                                     key=lambda c: (-table.row(c.id).demand, c.id))]
    assert seen == expected


def _two_cloud(caps, d_c=20000.0, d_e=0.0, d_ec=20000.0):
    return Infrastructure(
        clouds=(CloudNode(0, caps[0]), CloudNode(1, caps[1])),
        rrh_distances={"r0": {0: d_c, 1: d_e}},
        cloud_distances={0: {0: 0.0, 1: d_ec}, 1: {0: d_ec, 1: 0.0}},
    )


def _chain(cid, demands, bound=1.0):
    return ChainRequest(id=cid, service=None, rrh="r0",
                        vnfs=tuple(VnfSpec(g, bound, bound) for g in demands))


def test_whole_chain_goes_to_fullest_fitting_cloud():
    # Both clouds fit the chain; the edge is smaller, so best fit picks it.
    inst = Instance(infra=_two_cloud((10000.0, 3000.0)),
                    chains=(_chain("c0", (1.0, 1.0)),))
    res = b_first(inst)
    assert res.events[0].mode == "whole"
    assert res.events[0].cloud == 1
    assert res.accepted_ids == ["c0"]


def _three_cloud(caps):
    """Clouds 2, 0, 1, declared in that order, all at the RRH and 20 km apart."""
    ids = (2, 0, 1)
    return Infrastructure(
        clouds=tuple(CloudNode(k, caps[k]) for k in ids),
        rrh_distances={"r0": {k: 0.0 for k in ids}},
        cloud_distances={k: {j: 0.0 if j == k else 20000.0 for j in ids} for k in ids},
    )


@pytest.mark.parametrize("caps, expected", [
    # Clouds 1 and 2 tie on residual capacity: the lower id wins, whatever
    # the declaration order.
    ({0: 10000.0, 1: 3000.0, 2: 3000.0}, 1),
    # The lower id has more residual capacity, so best fit passes it over.
    ({0: 10000.0, 1: 3000.0, 2: 2999.0}, 2),
    # Every cloud ties.
    ({0: 3000.0, 1: 3000.0, 2: 3000.0}, 0),
])
def test_whole_fit_ties_go_to_the_lowest_cloud_id(caps, expected):
    inst = Instance(infra=_three_cloud(caps), chains=(_chain("c0", (1.0, 1.0)),))
    res = b_first(inst)
    assert [(e.mode, e.cloud) for e in res.events] == [("whole", expected)]
    assert res.evaluations == 1


def test_split_used_only_when_whole_fails():
    # 2500 + 2500 demand, clouds of 4000 each: no whole placement fits,
    # a split after VNF 1 does.
    inst = Instance(infra=_two_cloud((4000.0, 4000.0), d_c=0.0),
                    chains=(_chain("c0", (2.5, 2.5)),))
    res = b_first(inst)
    event = res.events[0]
    assert event.mode == "split"
    assert event.split_after == 1
    assert res.solution.feasible
    # The split pays zero penalty here (20 km on a 1 ms bound leaves the
    # 1000*g/margin rate under the co-located requirement only when the
    # other bound is looser; with f=b=1 the penalty is positive).
    assert res.solution.objective > 5000.0


def test_split_picks_globally_cheapest_candidate():
    rng = random.Random(17)
    for _ in range(40):
        inst = rand_instance(rng, max_chains=1, max_vnfs=4)
        table = RateTable(inst)
        res = b_first(inst, table=table)
        event = res.events[0]
        if event.mode != "split":
            continue
        chain = inst.chains[0]
        cid = chain.id
        n = len(chain.vnfs)
        row = table.row(cid)
        caps = {k: inst.infra.capacity(k) for k in inst.infra.cloud_ids()}
        candidates = []
        for k in inst.infra.cloud_ids():
            head = row.first[table.position[k]]
            if head == INFEASIBLE:
                continue
            for j in inst.infra.cloud_ids():
                if j == k:
                    continue
                for p in range(1, n):
                    pf, pb = table.split(cid, p, k, j)
                    if INFEASIBLE in (pf, pb):
                        continue
                    prefix = head + sum(row.colo[m - 1] for m in range(2, p + 1)) + pf
                    suffix = pb + sum(row.colo[m - 1] for m in range(p + 1, n + 1))
                    if prefix <= caps[k] + CAP_TOL and suffix <= caps[j] + CAP_TOL:
                        candidates.append((prefix + suffix, p, k, j))
        assert candidates
        best = min(candidates)
        assert (event.split_after, event.cloud, event.suffix_cloud) == \
            (best[1], best[2], best[3])
        assert math.isclose(event.added_rate, best[0], rel_tol=1e-12)


# Draws where two split candidates tie exactly in rational arithmetic on
# the instance's floats, but their float totals differ in the last bit.
@pytest.mark.parametrize("seed, num_edges, chain_id, expected", [
    (2343, None, "c2", (1, 0, 1)),
    (2045, 2, "c0", (0, 2, 1)),
    (5076, 3, "c0", (0, 1, 1)),
    (5571, 3, "c1", (0, 1, 1)),
])
def test_split_ties_go_to_the_earliest_split(seed, num_edges, chain_id, expected):
    inst = rand_instance(random.Random(seed), max_chains=3, num_edges=num_edges)
    splits = {e.chain_id: e for e in b_first(inst).events if e.mode == "split"}
    event = splits[chain_id]
    assert (event.cloud, event.suffix_cloud, event.split_after) == expected


def test_rejection_leaves_rest_untouched():
    # Middle chain can never fit; the others must still land.
    inst = Instance(infra=_two_cloud((3000.0, 3000.0), d_c=0.0),
                    chains=(_chain("c0", (1.0,)),
                            _chain("big", (9.9,)),
                            _chain("c2", (1.0,))))
    res = b_first(inst)
    assert res.accepted_ids == ["c0", "c2"]
    rejected = [e for e in res.events if not e.accepted]
    assert len(rejected) == 1 and rejected[0].chain_id == "big"
    assert rejected[0].mode == "rejected"
    assert res.solution.feasible


def test_accepted_subset_evaluates_as_with_its_own_table():
    # Tight capacities: some chains are rejected, the rest land whole or
    # split.  The solution, costed with the full instance's table, must
    # equal a fresh evaluation of the accepted chains on their own table.
    cfg = ScenarioConfig(edge_sites="center", edge_capacity=2240.0,
                         central_capacity=4480.0)
    inst = build_instance(cfg, size=12)
    res = b_first(inst)
    assert 0 < len(res.accepted_ids) < len(inst.chains)
    assert {e.mode for e in res.events} == {"whole", "split", "rejected"}
    sub = inst.subset(res.accepted_ids)
    expected = evaluate(sub, res.solution.assignment, RateTable(sub))
    for field in dataclasses.fields(expected):
        name = field.name
        assert getattr(res.solution, name) == getattr(expected, name), name


def test_never_beats_optimal_on_accepted_set():
    rng = random.Random(18)
    for _ in range(20):
        inst = rand_instance(rng, max_chains=2, max_vnfs=3)
        res = b_first(inst)
        if not res.accepted_ids:
            continue
        sub = inst.subset(res.accepted_ids)
        exact = solve_optimal(sub)
        assert exact.status == "optimal"
        assert exact.solution.objective <= res.solution.objective * (1 + 1e-9) + 1e-9


def test_fixed_split_layout():
    cfg = ScenarioConfig(edge_sites="center")
    inst = build_instance(cfg, size=4)
    sol = fixed_split(inst)
    for chain in inst.chains:
        vec = [sol.assignment.cloud_of(chain.id, n)
               for n in range(1, len(chain.vnfs) + 1)]
        assert vec == [1, 1, 1, 1, 0, 0, 0, 0]


def test_fixed_split_short_chain_stays_whole():
    inst = Instance(infra=_two_cloud((10000.0, 10000.0)),
                    chains=(_chain("c0", (1.0, 1.0)),))
    sol = fixed_split(inst)
    assert [sol.assignment.cloud_of("c0", n) for n in (1, 2)] == [1, 1]


def test_fixed_split_without_edges_goes_central():
    infra = Infrastructure(clouds=(CloudNode(0, 10000.0),),
                           rrh_distances={"r0": {0: 1000.0}},
                           cloud_distances={0: {0: 0.0}})
    inst = Instance(infra=infra, chains=(_chain("c0", (1.0, 1.0)),))
    sol = fixed_split(inst)
    assert [sol.assignment.cloud_of("c0", n) for n in (1, 2)] == [0, 0]


def test_fixed_service_routing():
    cfg = ScenarioConfig(edge_sites="center")
    inst = build_instance(cfg, size=7)
    sol = fixed_service(inst)
    for chain in inst.chains:
        target = 1 if chain.service.name == "URLLC2" else 0
        vec = {sol.assignment.cloud_of(chain.id, n)
               for n in range(1, len(chain.vnfs) + 1)}
        assert vec == {target}


def test_fixed_baselines_need_central_cloud():
    infra = Infrastructure(clouds=(CloudNode(1, 10.0),),
                           rrh_distances={"r0": {1: 0.0}},
                           cloud_distances={1: {1: 0.0}})
    inst = Instance(infra=infra, chains=(_chain("c0", (1.0,)),))
    with pytest.raises(ValueError):
        fixed_split(inst)
    with pytest.raises(ValueError):
        fixed_service(inst)


def test_event_log_lines():
    event = PlacementEvent("c7", True, "split", cloud=2, suffix_cloud=0,
                           split_after=3, added_rate=123.456789)
    line = event.as_line()
    assert line == ("chain=c7 outcome=accept mode=split cloud=2 "
                    "suffix_cloud=0 split_after=3 rate=123.456789")
    line2 = PlacementEvent("c1", False, "rejected").as_line()
    assert line2 == "chain=c1 outcome=reject mode=rejected"
