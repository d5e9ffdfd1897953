import gc
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from util import chain_hop_distances, rand_instance, split_feasible, two_cloud_oracle
from vnfplan import rates
from vnfplan.heuristics import b_first
from vnfplan.model import ChainRequest, CloudNode, Infrastructure, Instance, VnfSpec
from vnfplan.rates import (
    EPS_MS,
    INFEASIBLE,
    Assignment,
    RateTable,
    colocated_rate,
    comm_delay_ms,
    evaluate,
    first_vnf_rate,
    rate_for_bound,
    split_penalty,
)
from vnfplan.scenario import ScenarioConfig, build_instance


def test_comm_delay_values():
    assert comm_delay_ms(30000.0, 200.0) == 0.15
    assert comm_delay_ms(90000.0, 200.0) == 0.45
    assert comm_delay_ms(0.0, 200.0) == 0.0


def test_rate_for_bound():
    assert rate_for_bound(4.0, 1.0) == 4000.0
    assert rate_for_bound(2.0, 0.5) == 4000.0


def test_colocated_uses_tighter_bound():
    assert colocated_rate(2.0, 1.0, 4.0) == 2000.0
    assert colocated_rate(2.0, 4.0, 1.0) == 2000.0


def test_split_feasible_boundary():
    # 0.2 ms of budget buys exactly 40 km of fiber at 200 m/us.
    assert split_feasible(30000.0, 200.0, 0.2)
    assert not split_feasible(40000.0, 200.0, 0.2)   # closed set: equality fails
    assert not split_feasible(90000.0, 200.0, 0.2)
    assert split_feasible(39000.0, 200.0, 0.2)


def test_split_penalty_worked_example():
    # 2 GFLOPS, 1 ms bound, 30 km split: margin 0.85 ms.
    pen = split_penalty(2.0, 1.0, 30000.0, 200.0, base_rate=2000.0)
    assert pen == pytest.approx(2000.0 / 0.85 - 2000.0)
    assert pen == pytest.approx(352.9411764705883)


def test_split_penalty_zero_when_slack_direction():
    # Base dictated by a much tighter other bound: the split adds nothing.
    pen = split_penalty(2.0, 10.0, 30000.0, 200.0, base_rate=2000.0)
    assert pen == 0.0


def test_split_penalty_infeasible_cases():
    assert split_penalty(2.0, 0.2, 90000.0, 200.0, 1000.0) == INFEASIBLE
    assert split_penalty(2.0, 0.2, 40000.0, 200.0, 1000.0) == INFEASIBLE
    assert split_penalty(2.0, 1.0, 30000.0, 200.0, INFEASIBLE) == INFEASIBLE


def test_first_vnf_rate_worked_example():
    # 4 GFLOPS, 1 ms bounds, RRH 1 km away: backward margin 0.995 ms.
    rate = first_vnf_rate(4.0, 1.0, 1.0, 1000.0, 200.0)
    assert rate == pytest.approx(4020.100502512563)
    assert first_vnf_rate(4.0, 1.0, 1.0, 0.0, 200.0) == 4000.0
    assert first_vnf_rate(4.0, 1.0, 0.2, 40000.0, 200.0) == INFEASIBLE


def _line_instance(n_clouds=2, caps=(10000.0, 8000.0), d_c=30000.0,
                   d_e=1000.0, d_ec=30000.0, vnfs=None):
    clouds = tuple(CloudNode(k, caps[k]) for k in range(n_clouds))
    rrh = {"r0": {0: d_c, 1: d_e}}
    dist = {0: {0: 0.0, 1: d_ec}, 1: {0: d_ec, 1: 0.0}}
    if vnfs is None:
        vnfs = (VnfSpec(4.0, 1.0, 1.0), VnfSpec(2.0, 1.0, 1.0),
                VnfSpec(1.0, 1.0, 1.0))
    chain = ChainRequest(id="c0", service=None, rrh="r0", vnfs=tuple(vnfs))
    infra = Infrastructure(clouds=clouds, rrh_distances=rrh,
                           cloud_distances=dist)
    return Instance(infra=infra, chains=(chain,))


def test_evaluate_all_edge_chain():
    inst = _line_instance()
    sol = evaluate(inst, Assignment.from_vectors({"c0": [1, 1, 1]}))
    assert sol.feasible
    assert sol.objective == pytest.approx(7020.100502512563)
    assert sol.loads[1] == pytest.approx(7020.100502512563)
    assert sol.loads[0] == 0.0


def test_evaluate_all_central_chain():
    inst = _line_instance()
    sol = evaluate(inst, Assignment.from_vectors({"c0": [0, 0, 0]}))
    assert sol.feasible
    # Head pays the 30 km fronthaul: margin 0.85 ms on a 1 ms bound.
    assert sol.objective == pytest.approx(4000.0 / 0.85 + 3000.0)
    assert sol.objective == pytest.approx(7705.882352941177)


def test_required_rate_takes_worst_neighbor_penalty():
    # VNF 2 at cloud 1; backward neighbor across 60 km, forward across
    # 30 km.  The backward margin 0.7 ms dominates.
    clouds = (CloudNode(0, 1e6), CloudNode(1, 1e6), CloudNode(2, 1e6))
    rrh = {"r0": {0: 0.0, 1: 0.0, 2: 0.0}}
    dist = {
        0: {0: 0.0, 1: 30000.0, 2: 60000.0},
        1: {0: 30000.0, 1: 0.0, 2: 60000.0},
        2: {0: 60000.0, 1: 60000.0, 2: 0.0},
    }
    vnfs = (VnfSpec(2.0, 10.0, 10.0), VnfSpec(2.0, 1.0, 1.0),
            VnfSpec(2.0, 10.0, 10.0))
    chain = ChainRequest(id="c0", service=None, rrh="r0", vnfs=vnfs)
    inst = Instance(infra=Infrastructure(clouds=clouds, rrh_distances=rrh,
                                         cloud_distances=dist),
                    chains=(chain,))
    table = RateTable(inst)
    # bwd: 1 - 0.3 = 0.7 ms -> 2857.14; fwd: 1 - 0.15 = 0.85 -> 2352.94.
    assert table.chain_rates("c0", [2, 1, 0])[1] == pytest.approx(2000.0 / 0.7)
    assert table.chain_rates("c0", [2, 1, 0])[1] == pytest.approx(2857.142857142857)


def test_evaluate_collects_capacity_violation():
    inst = _line_instance(caps=(10000.0, 5000.0))
    sol = evaluate(inst, Assignment.from_vectors({"c0": [1, 1, 1]}))
    assert not sol.feasible
    assert any("over capacity" in v for v in sol.violations)
    # The objective is still the honest sum of required rates.
    assert sol.objective == pytest.approx(7020.100502512563)


def test_evaluate_collects_latency_violations():
    # URLLC-tight bounds: head infeasible at the far central cloud and
    # the 90 km split between clouds is infeasible too.
    vnfs = (VnfSpec(1.0, 0.2, 0.2), VnfSpec(1.0, 0.2, 0.2))
    inst = _line_instance(d_c=50000.0, d_e=1000.0, d_ec=90000.0, vnfs=vnfs)
    sol = evaluate(inst, Assignment.from_vectors({"c0": [0, 1]}))
    assert not sol.feasible
    assert sol.objective == INFEASIBLE
    text = "\n".join(sol.violations)
    assert "RRH link exceeds the backward bound" in text
    assert "exceeds the forward bound" in text or "exceeds the backward bound" in text


def test_rate_table_matches_direct_formulas():
    inst = _line_instance()
    table = RateTable(inst)
    chain = inst.chains[0]
    assert table.colocated("c0", 2) == colocated_rate(2.0, 1.0, 1.0)
    assert table.first_rate("c0", 1) == first_vnf_rate(4.0, 1.0, 1.0, 1000.0, 200.0)
    assert table.placement_feasible("c0", 0)
    assert table.chain_demand("c0") == pytest.approx(7000.0)
    assert table.split_penalty_fwd("c0", 1, 1, 1) == 0.0
    pen = table.split_penalty_fwd("c0", 2, 0, 1)
    assert pen == pytest.approx(2000.0 / 0.85 - 2000.0)
    assert len(chain) == 3


def test_chain_hop_distances():
    inst = _line_instance()
    chain = inst.chains[0]
    a = Assignment.from_vectors({"c0": [1, 0, 1]})
    assert chain_hop_distances(inst, a, chain) == [30000.0, 30000.0]
    a2 = Assignment.from_vectors({"c0": [1, 1, 1]})
    assert chain_hop_distances(inst, a2, chain) == []


def test_two_cloud_oracle_agreement_sample():
    rng = random.Random(42)
    for _ in range(30):
        inst = rand_instance(rng, num_edges=1)
        table = RateTable(inst)
        for chain in inst.chains:
            n = len(chain.vnfs)
            for mask in range(2 ** n):
                xs = [(mask >> i) & 1 for i in range(n)]
                vec = [0 if x == 1 else 1 for x in xs]
                expected = two_cloud_oracle(inst, chain, xs)
                got = table.chain_rates(chain.id, vec)
                if expected is None:
                    assert INFEASIBLE in got
                else:
                    for g, e in zip(got, expected):
                        assert math.isclose(g, e, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.1, max_value=8.0),
       st.integers(min_value=2, max_value=60),
       st.integers(min_value=0, max_value=100))
def test_split_penalty_nonnegative_and_monotone(gflops, bound_step, dist_km):
    bound = bound_step * 0.05
    base = rate_for_bound(gflops, bound)
    pen = split_penalty(gflops, bound, dist_km * 1000.0, 200.0, base)
    if pen == INFEASIBLE:
        assert not split_feasible(dist_km * 1000.0, 200.0, bound)
        return
    assert pen >= 0.0
    farther = split_penalty(gflops, bound, (dist_km + 1) * 1000.0, 200.0, base)
    assert farther == INFEASIBLE or farther >= pen


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_required_rate_never_below_base(seed):
    rng = random.Random(seed)
    inst = rand_instance(rng, max_chains=2, max_vnfs=3)
    table = RateTable(inst)
    clouds = inst.infra.cloud_ids()
    for chain in inst.chains:
        n = len(chain.vnfs)
        vec = [rng.choice(clouds) for _ in range(n)]
        per_vnf = table.chain_rates(chain.id, vec)
        for pos in range(1, n + 1):
            rate = per_vnf[pos - 1]
            base = table.first_rate(chain.id, vec[0]) if pos == 1 \
                else table.colocated(chain.id, pos)
            assert rate >= base or rate == INFEASIBLE


def test_eps_band_is_one_nanosecond():
    assert EPS_MS == 1e-6


def _shared_signature_instance():
    """Three clouds; chains repeating one (RRH, VNF list) signature, the
    same VNFs at another RRH, and other VNFs at the same RRH."""
    clouds = tuple(CloudNode(k, 1e6) for k in range(3))
    rrh = {"r0": {0: 30000.0, 1: 1000.0, 2: 5000.0},
           "r1": {0: 20000.0, 1: 9000.0, 2: 0.0}}
    dist = {0: {0: 0.0, 1: 30000.0, 2: 30000.0},
            1: {0: 30000.0, 1: 0.0, 2: 8000.0},
            2: {0: 30000.0, 1: 8000.0, 2: 0.0}}
    vnfs = (VnfSpec(4.0, 1.0, 0.5), VnfSpec(2.0, 0.3, 1.0), VnfSpec(1.0, 0.3, 0.3))
    other = (VnfSpec(3.0, 2.0, 2.0), VnfSpec(2.0, 0.4, 2.0))
    chains = (
        ChainRequest(id="a", service=None, rrh="r0", vnfs=vnfs),
        ChainRequest(id="b", service=None, rrh="r1", vnfs=vnfs),
        ChainRequest(id="c", service=None, rrh="r0",
                     vnfs=tuple(VnfSpec(x.gflops, x.fwd_ms, x.bwd_ms) for x in vnfs)),
        ChainRequest(id="d", service=None, rrh="r0", vnfs=other),
        ChainRequest(id="e", service=None, rrh="r0", vnfs=vnfs),
    )
    infra = Infrastructure(clouds=clouds, rrh_distances=rrh, cloud_distances=dist)
    return Instance(infra=infra, chains=chains)


def _accessor_values(table, chain):
    cid = chain.id
    n_vnfs = len(chain.vnfs)
    clouds = table.cloud_ids
    pairs = [(k, j) for k in clouds for j in clouds]
    return {
        "colocated": [table.colocated(cid, n) for n in range(1, n_vnfs + 1)],
        "first_rate": [table.first_rate(cid, k) for k in clouds],
        "placement_feasible": [table.placement_feasible(cid, k) for k in clouds],
        "split_fwd": [table.split_penalty_fwd(cid, n, k, j)
                      for n in range(1, n_vnfs) for k, j in pairs],
        "split_bwd": [table.split_penalty_bwd(cid, n, k, j)
                      for n in range(2, n_vnfs + 1) for k, j in pairs],
        "chain_demand": table.chain_demand(cid),
        "chain_rates": [table.chain_rates(cid, combo)
                        for combo in itertools.product(clouds, repeat=n_vnfs)],
    }


def test_shared_rows_match_single_chain_tables():
    inst = _shared_signature_instance()
    table = RateTable(inst)
    for chain in inst.chains:
        alone = RateTable(Instance(inst.infra, (chain,)))
        assert _accessor_values(table, chain) == _accessor_values(alone, chain), chain.id
    # Ids of one signature answer alike; another RRH or VNF list does not.
    a, e = inst.chains[0], inst.chains[4]
    assert _accessor_values(table, a) == _accessor_values(table, e)
    assert table.first_rate("a", 0) != table.first_rate("b", 0)
    assert table.chain_demand("a") != table.chain_demand("d")


def test_rate_table_penalties_match_direct_formula():
    # Three or four clouds with repeated link lengths, so penalties that
    # a row computes once per length land on every pair of that length.
    rng = random.Random(7)
    insts = [_shared_signature_instance()]
    insts += [rand_instance(rng, num_edges=rng.choice([2, 3])) for _ in range(20)]
    for inst in insts:
        table = RateTable(inst)
        v = inst.infra.fiber_speed
        clouds = inst.infra.cloud_ids()
        for chain in inst.chains:
            cid = chain.id
            for k in clouds:
                for j in clouds:
                    if k == j:
                        continue
                    d = inst.infra.dist(k, j)
                    for n, vnf in enumerate(chain.vnfs, start=1):
                        base = table.first_rate(cid, k) if n == 1 else table.colocated(cid, n)
                        if n < len(chain.vnfs):
                            assert table.split_penalty_fwd(cid, n, k, j) == \
                                split_penalty(vnf.gflops, vnf.fwd_ms, d, v, base)
                        if n > 1:
                            assert table.split_penalty_bwd(cid, n, k, j) == \
                                split_penalty(vnf.gflops, vnf.bwd_ms, d, v, base)


def test_children_match_accessors():
    rng = random.Random(11)
    insts = [_shared_signature_instance()]
    insts += [rand_instance(rng, num_edges=rng.choice([1, 2, 3])) for _ in range(20)]
    for inst in insts:
        table = RateTable(inst)
        clouds = inst.infra.cloud_ids()
        for chain in inst.chains:
            cid = chain.id
            head = [(i, table.first_rate(cid, k), 0.0, 0.0) for i, k in enumerate(clouds)]
            assert table.children(cid, 1) == [head] * len(clouds)
            for n in range(2, len(chain.vnfs) + 1):
                by_prev = table.children(cid, n)
                assert len(by_prev) == len(clouds)
                for j, options in zip(clouds, by_prev):
                    expected = []
                    for i, k in enumerate(clouds):
                        pen_bwd = table.split_penalty_bwd(cid, n, k, j)
                        pen_fwd_prev = table.split_penalty_fwd(cid, n - 1, j, k)
                        if INFEASIBLE in (pen_bwd, pen_fwd_prev):
                            expected.append((i, INFEASIBLE, INFEASIBLE, INFEASIBLE))
                        else:
                            expected.append((i, table.colocated(cid, n) + pen_bwd,
                                             pen_bwd, pen_fwd_prev))
                    assert options == expected, (cid, n, j)


def test_evaluate_with_shared_rows_sums_per_chain_objectives():
    inst = _shared_signature_instance()
    vectors = {"a": [1, 1, 2], "b": [2, 0, 0], "c": [1, 2, 2], "d": [0, 1], "e": [1, 1, 2]}
    a = Assignment.from_vectors(vectors)
    sol = evaluate(inst, a, RateTable(inst))
    per_chain = [evaluate(Instance(inst.infra, (chain,)),
                          Assignment.from_vectors({chain.id: vectors[chain.id]}))
                 for chain in inst.chains]
    # Same additions in the same order: exact.  Per-chain subtotals: rounding.
    assert sol.objective == sum(rate for s in per_chain for _, rate in s.rates.values())
    assert sol.objective == pytest.approx(sum(s.objective for s in per_chain), rel=1e-12)
    for s in per_chain:
        for key, value in s.rates.items():
            assert sol.rates[key] == value
    assert sol.rates[("a", 3)] == sol.rates[("e", 3)]


def _count_split_penalty_calls(monkeypatch):
    counter = {"calls": 0}
    real = rates.split_penalty

    def counting(*args):
        counter["calls"] += 1
        return real(*args)

    monkeypatch.setattr(rates, "split_penalty", counting)
    return counter


def test_rate_table_builds_one_row_per_signature(monkeypatch):
    counter = _count_split_penalty_calls(monkeypatch)
    cfg = ScenarioConfig(edge_sites="all", seed=0, central_capacity=1e12,
                         edge_capacity=1e12)
    inst = build_instance(cfg, d0_m=45000.0, size=800)
    distinct = {}
    for chain in inst.chains:
        distinct.setdefault((chain.rrh, chain.vnfs), chain)
    assert len(distinct) < len(inst.chains)

    def build_and_read(chains):
        counter["calls"] = 0
        table = RateTable(Instance(inst.infra, tuple(chains)))
        k, j = table.cloud_ids[:2]
        for chain in chains:
            table.split_penalty_fwd(chain.id, 1, k, j)
            table.split_penalty_bwd(chain.id, 2, k, j)
        return counter["calls"]

    assert 0 < build_and_read(inst.chains) <= build_and_read(distinct.values())


def test_whole_chain_placements_read_no_penalties(monkeypatch):
    counter = _count_split_penalty_calls(monkeypatch)
    inst = _shared_signature_instance()
    table = RateTable(inst)
    whole = {c.id: [1] * len(c.vnfs) for c in inst.chains}
    evaluate(inst, Assignment.from_vectors(whole), table)
    assert counter["calls"] == 0
    whole["a"] = [1, 1, 2]
    evaluate(inst, Assignment.from_vectors(whole), table)
    assert counter["calls"] > 0


def test_dropped_table_leaves_no_cycle():
    # Reference counting alone frees a table, whether its rows' penalties
    # were read or not, so no garbage waits for the cyclic collector.
    cfg = ScenarioConfig(edge_sites="all", seed=0, central_capacity=1e12,
                         edge_capacity=1e12)
    inst = build_instance(cfg, d0_m=45000.0, size=800)
    gc.collect()
    gc.disable()
    try:
        table = RateTable(inst)
        del table
        assert gc.collect() == 0
        table = RateTable(inst)
        b_first(inst, table)
        del table
        assert gc.collect() == 0
    finally:
        gc.enable()
