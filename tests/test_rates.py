import dataclasses
import gc
import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from util import (
    chain_hop_distances,
    rand_instance,
    reference_evaluate,
    solution_bits,
    split_feasible,
    two_cloud_oracle,
)
from vnfplan import heuristics, rates, solver
from vnfplan.config import load_instance, save_instance
from vnfplan.heuristics import b_first
from vnfplan.ilp import build_ilp
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


def split_penalty(gflops, bound_ms, dist_m, fiber_speed, base_rate):
    """rates.split_penalty over a link of length dist_m."""
    return rates.split_penalty(gflops, bound_ms, comm_delay_ms(dist_m, fiber_speed), base_rate)


def direct_penalty(gflops, bound_ms, dist_m, fiber_speed, base_rate):
    """The split penalty written out from the rate formulas, one link."""
    if base_rate == INFEASIBLE:
        return INFEASIBLE
    margin = bound_ms - comm_delay_ms(dist_m, fiber_speed)
    if margin <= EPS_MS:
        return INFEASIBLE
    return max(rate_for_bound(gflops, margin), base_rate) - base_rate


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


# A cloud vector for the centre-only instance's one 8-VNF chain, and the
# start of the message evaluate raises for it.
BAD_VECTORS = {
    "too-long": ([0] * 8 + [1, 7], "chain c000: cloud vector"),
    "too-short": ([0] * 7, "chain c000: cloud vector"),
    "unknown-cloud": ([0] * 7 + [9], "chain c000: no cloud 9"),
    "missing-chain": (None, "chain c000: cloud vector None"),
}


@pytest.mark.parametrize("case", sorted(BAD_VECTORS))
def test_evaluate_rejects_a_vector_that_does_not_fit_its_chain(case):
    inst = build_instance(ScenarioConfig(edge_sites="center", seed=0), size=1)
    assert inst.infra.cloud_ids() == (0, 1) and len(inst.chains[0].vnfs) == 8
    vector, message = BAD_VECTORS[case]
    a = Assignment.from_vectors({} if vector is None else {"c000": vector})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        evaluate(inst, a)


def test_evaluate_ignores_vectors_of_other_chains():
    inst = _line_instance()
    a = Assignment.from_vectors({"c0": [1, 1, 1], "other": [5]})
    assert evaluate(inst, a).objective == pytest.approx(7020.100502512563)


@pytest.mark.parametrize("n", [0, -1, 4])
def test_cloud_of_outside_the_chain_raises_key_error(n):
    a = Assignment.from_vectors({"c0": [1, 0, 2]})
    assert [a.cloud_of("c0", m) for m in (1, 2, 3)] == [1, 0, 2]
    with pytest.raises(KeyError):
        a.cloud_of("c0", n)


def test_rate_table_matches_direct_formulas():
    inst = _line_instance()
    table = RateTable(inst)
    chain = inst.chains[0]
    row = table.row("c0")
    assert row.colo[1] == colocated_rate(2.0, 1.0, 1.0)
    assert row.first[table.position[1]] == first_vnf_rate(4.0, 1.0, 1.0, 1000.0, 200.0)
    assert row.first[table.position[0]] != INFEASIBLE
    assert row.demand == pytest.approx(7000.0)
    assert table.split("c0", 1, 1, 1) == (0.0, 0.0)
    pen = table.split("c0", 2, 0, 1)[0]
    assert pen == pytest.approx(2000.0 / 0.85 - 2000.0)
    assert len(chain.vnfs) == 3


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
        row = table.row(chain.id)
        for pos in range(1, n + 1):
            rate = per_vnf[pos - 1]
            base = row.first[table.position[vec[0]]] if pos == 1 else row.colo[pos - 1]
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


def _asymmetric_instance():
    """Three clouds whose link lengths depend on the direction of travel,
    so a penalty read across the reverse link differs."""
    clouds = tuple(CloudNode(k, 1e6) for k in range(3))
    rrh = {"r0": {0: 30000.0, 1: 1000.0, 2: 5000.0}}
    dist = {0: {0: 0.0, 1: 10000.0, 2: 50000.0},
            1: {0: 40000.0, 1: 0.0, 2: 20000.0},
            2: {0: 30000.0, 1: 60000.0, 2: 0.0}}
    vnfs = (VnfSpec(4.0, 0.5, 0.5), VnfSpec(2.0, 0.3, 1.0), VnfSpec(1.0, 0.3, 0.3))
    chain = ChainRequest(id="a", service=None, rrh="r0", vnfs=vnfs)
    infra = Infrastructure(clouds=clouds, rrh_distances=rrh, cloud_distances=dist)
    return Instance(infra=infra, chains=(chain,))


def _accessor_values(table, chain):
    cid = chain.id
    n_vnfs = len(chain.vnfs)
    clouds = table.cloud_ids
    pairs = [(k, j) for k in clouds for j in clouds]
    row = table.row(cid)
    return {
        "colo": row.colo,
        "first": [row.first[table.position[k]] for k in clouds],
        "split": [table.split(cid, n, k, j) for n in range(1, n_vnfs) for k, j in pairs],
        "demand": row.demand,
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
    assert table.row("a").first[table.position[0]] != table.row("b").first[table.position[0]]
    assert table.row("a").demand != table.row("d").demand


def test_rate_table_penalties_match_direct_formula():
    # Three or four clouds with repeated link lengths, so penalties that
    # a row computes once per length land on every pair of that length,
    # and three clouds whose link lengths depend on the direction.
    rng = random.Random(7)
    insts = [_shared_signature_instance(), _asymmetric_instance()]
    insts += [rand_instance(rng, num_edges=rng.choice([2, 3])) for _ in range(20)]
    for inst in insts:
        table = RateTable(inst)
        v = inst.infra.fiber_speed
        clouds = inst.infra.cloud_ids()
        for chain in inst.chains:
            cid = chain.id
            row = table.row(cid)
            for k in clouds:
                for j in clouds:
                    if k == j:
                        continue
                    d = inst.infra.dist(k, j)
                    for n, vnf in enumerate(chain.vnfs, start=1):
                        base = row.first[table.position[k]] if n == 1 else row.colo[n - 1]
                        # VNF n at k: the split after n to j, and the split after n-1 from j.
                        if n < len(chain.vnfs):
                            assert table.split(cid, n, k, j)[0] == \
                                direct_penalty(vnf.gflops, vnf.fwd_ms, d, v, base)
                        if n > 1:
                            assert table.split(cid, n - 1, j, k)[1] == \
                                direct_penalty(vnf.gflops, vnf.bwd_ms, d, v, base)


def test_children_match_accessors():
    rng = random.Random(11)
    insts = [_shared_signature_instance(), _asymmetric_instance()]
    insts += [rand_instance(rng, num_edges=rng.choice([1, 2, 3])) for _ in range(20)]
    for inst in insts:
        table = RateTable(inst)
        clouds = inst.infra.cloud_ids()
        for chain in inst.chains:
            cid = chain.id
            row = table.row(cid)
            head = [(i, row.first[table.position[k]], 0.0, 0.0) for i, k in enumerate(clouds)]
            assert row.children[1] == [head] * len(clouds)
            for n in range(2, len(chain.vnfs) + 1):
                by_prev = row.children[n]
                assert len(by_prev) == len(clouds)
                for j, options in zip(clouds, by_prev):
                    expected = []
                    for i, k in enumerate(clouds):
                        pen_fwd_prev, pen_bwd = table.split(cid, n - 1, j, k)
                        if INFEASIBLE in (pen_bwd, pen_fwd_prev):
                            expected.append((i, INFEASIBLE, INFEASIBLE, INFEASIBLE))
                        else:
                            expected.append((i, row.colo[n - 1] + pen_bwd,
                                             pen_bwd, pen_fwd_prev))
                    assert options == expected, (cid, n, j)


def test_cheapest_first_sorts_children():
    rng = random.Random(13)
    insts = [_shared_signature_instance(), _asymmetric_instance()]
    insts += [rand_instance(rng, num_edges=rng.choice([1, 2, 3])) for _ in range(20)]
    for inst in insts:
        table = RateTable(inst)
        for chain in inst.chains:
            row = table.row(chain.id)
            for n in range(1, len(chain.vnfs) + 1):
                by_prev = row.children[n]
                ordered = row.cheapest_first[n]
                assert len(ordered) == len(by_prev)
                for options, tried in zip(by_prev, ordered):
                    assert sorted(tried) == sorted(options)
                    keys = [(rate + pen_fwd_prev, i) for i, rate, _, pen_fwd_prev in tried]
                    assert keys == sorted(keys)
                    feasible = [rate != INFEASIBLE for _, rate, _, _ in tried]
                    assert feasible == sorted(feasible, reverse=True)


def test_chain_rates_match_accessors():
    for inst in (_shared_signature_instance(), _asymmetric_instance()):
        table = RateTable(inst)
        for chain in inst.chains:
            cid, n_vnfs = chain.id, len(chain.vnfs)
            row = table.row(cid)
            for vec in itertools.product(table.cloud_ids, repeat=n_vnfs):
                expected = []
                for n, k in enumerate(vec, start=1):
                    base = row.first[table.position[k]] if n == 1 else row.colo[n - 1]
                    pen_fwd = table.split(cid, n, k, vec[n])[0] if n < n_vnfs else 0.0
                    pen_bwd = table.split(cid, n - 1, vec[n - 2], k)[1] if n > 1 else 0.0
                    expected.append(base + max(pen_fwd, pen_bwd))
                assert table.chain_rates(cid, vec) == expected, (cid, vec)


def test_evaluate_with_shared_rows_sums_per_chain_objectives():
    inst = _shared_signature_instance()
    vectors = {"a": [1, 1, 2], "b": [2, 0, 0], "c": [1, 2, 2], "d": [0, 1], "e": [1, 1, 2]}
    a = Assignment.from_vectors(vectors)
    sol = evaluate(inst, a, RateTable(inst))
    per_chain = [evaluate(Instance(inst.infra, (chain,)),
                          Assignment.from_vectors({chain.id: vectors[chain.id]}))
                 for chain in inst.chains]
    # Same additions in the same order: exact.  Per-chain subtotals: rounding.
    # sum() of floats is compensated since Python 3.12, so add left to right.
    total = 0.0
    for s in per_chain:
        for r in s.rates.values():
            for rate in r:
                total += rate
    assert sol.objective == total
    assert sol.objective == pytest.approx(sum(s.objective for s in per_chain), rel=1e-12)
    for s in per_chain:
        for cid, value in s.rates.items():
            assert sol.rates[cid] == value
    assert sol.rates["a"] == sol.rates["e"]


def _random_placements(inst, table, rng):
    """One cloud vector per chain: a third spread at random over the clouds
    (latency-infeasible splits among them), the rest drawn from three
    vectors per row, so chains of a row repeat placements."""
    clouds = inst.infra.cloud_ids()
    pools = {}
    vectors = {}
    for chain in inst.chains:
        size = len(chain.vnfs)
        if rng.random() < 1 / 3:
            vectors[chain.id] = tuple(rng.choice(clouds) for _ in range(size))
            continue
        pool = pools.setdefault(table.row(chain.id).id, [
            tuple(rng.choice(clouds) for _ in range(size)),
            (rng.choice(clouds),) * size,
            (rng.choice(clouds),) * (size // 2) + (rng.choice(clouds),) * (size - size // 2)])
        vectors[chain.id] = rng.choice(pool)
    return Assignment(vectors)


# The kinds of violation evaluate reports, by a phrase of their message.
KINDS = ("over capacity", "RRH link", "forward bound", "backward bound")


def test_evaluate_is_bit_identical_to_the_per_chain_reference():
    kinds = set()
    for sites in ("center", "all"):
        for size in (200, 800):
            inst = build_instance(ScenarioConfig(edge_sites=sites, seed=0), d0_m=45_000.0,
                                  size=size)
            table = RateTable(inst)
            rng = random.Random(size)
            for _ in range(4):
                a = _random_placements(inst, table, rng)
                sol = evaluate(inst, a, table)
                assert solution_bits(sol) == solution_bits(reference_evaluate(inst, a, table))
                kinds.update(kind for v in sol.violations for kind in KINDS if kind in v)
    rng = random.Random(7)
    for _ in range(300):
        inst = rand_instance(rng, max_chains=5)
        table = RateTable(inst)
        clouds = inst.infra.cloud_ids()
        a = Assignment({chain.id: tuple(rng.choice(clouds) for _ in chain.vnfs)
                        for chain in inst.chains})
        assert solution_bits(evaluate(inst, a, table)) == \
            solution_bits(reference_evaluate(inst, a, table))
    assert kinds == set(KINDS)


def test_evaluate_costs_each_distinct_row_and_placement_once(monkeypatch):
    inst = build_instance(ScenarioConfig(edge_sites="all", seed=0), d0_m=45_000.0, size=200)
    table = RateTable(inst)
    a = _random_placements(inst, table, random.Random(3))
    calls = []
    real = RateTable.chain_rates
    monkeypatch.setattr(RateTable, "chain_rates",
                        lambda self, cid, clouds: calls.append(cid) or real(self, cid, clouds))
    evaluate(inst, a, table)
    distinct = {(table.row(c.id).id, a.vectors[c.id]) for c in inst.chains}
    assert len(calls) == len(distinct) < len(inst.chains)


def test_evaluate_takes_list_vectors_like_tuples():
    inst = build_instance(ScenarioConfig(edge_sites="all", seed=0), d0_m=45_000.0, size=200)
    table = RateTable(inst)
    as_tuples = _random_placements(inst, table, random.Random(1))
    as_lists = Assignment({cid: list(clouds) for cid, clouds in as_tuples.vectors.items()})
    sol = evaluate(inst, as_lists, table)
    assert sol.assignment is as_lists
    assert dataclasses.replace(sol, assignment=as_tuples) == evaluate(inst, as_tuples, table)
    assert solution_bits(sol) == solution_bits(reference_evaluate(inst, as_lists, table))


def test_evaluate_names_the_chain_with_an_unknown_cloud_behind_a_shared_row():
    inst = _shared_signature_instance()
    table = RateTable(inst)
    assert table.row("a") is table.row("e")
    vectors = {"a": (1, 1, 2), "b": (2, 0, 0), "c": (1, 1, 2), "d": (0, 1), "e": (1, 1, 9)}
    with pytest.raises(ValueError, match="^chain e: no cloud 9 in the instance$"):
        evaluate(inst, Assignment(vectors), table)


def test_evaluate_names_a_chain_missing_from_the_table():
    inst = build_instance(ScenarioConfig(edge_sites="center", seed=0), size=3)
    vectors = {c.id: (0,) * len(c.vnfs) for c in inst.chains}
    table = RateTable(inst.subset(["c000"]))
    with pytest.raises(ValueError, match="^chain c001: not in the rate table$"):
        evaluate(inst, Assignment(vectors), table)


def _count_split_penalty_calls(monkeypatch):
    """Counts split_penalty calls."""
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
            table.split(chain.id, 1, k, j)
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


def test_root_settled_solve_builds_no_penalty_lists(monkeypatch):
    # The zero-slack walk and evaluate share each row's penalties, so no
    # penalty is computed twice, and the proof builds no child lists.
    cfg = ScenarioConfig(edge_sites="all", seed=0, mix_profile="eMBB")
    inst = build_instance(cfg, d0_m=45000.0, size=7)
    table = RateTable(inst)
    counter = _count_split_penalty_calls(monkeypatch)
    res = solver.solve_optimal(inst, table=table)
    assert (res.status, res.nodes) == ("optimal", 0)
    rows = {table.row(chain.id) for chain in inst.chains}
    for row in rows:
        assert not vars(row).keys() & {"children", "cheapest_first"}
    assert counter["calls"] == sum(len(row._pens) for row in rows) > 0


def test_evaluate_of_a_zero_slack_path_computes_no_penalty(monkeypatch):
    inst = build_instance(ScenarioConfig(edge_sites="all", seed=0), d0_m=45000.0, size=5)
    res = solver.solve_optimal(inst)
    assert (res.status, res.nodes) == ("optimal", 0)
    table = RateTable(inst)
    path = solver._zero_slack(inst, table)
    assert len(set(path.vectors["c000"])) > 1
    counter = _count_split_penalty_calls(monkeypatch)
    assert evaluate(inst, path, table).objective == res.solution.objective
    assert counter["calls"] == 0


def test_rate_table_finds_rows_without_hashing_every_vnf(monkeypatch):
    cfg = ScenarioConfig(edge_sites="all", seed=0, central_capacity=1e12,
                         edge_capacity=1e12)
    inst = build_instance(cfg, d0_m=45000.0, size=800)
    calls = [0]
    real = VnfSpec.__hash__

    def counting(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(VnfSpec, "__hash__", counting)
    table = RateTable(inst)
    monkeypatch.undo()
    rows = {table.row(chain.id) for chain in inst.chains}
    assert 0 < calls[0] <= 2 * sum(len(row.colo) for row in rows)


def test_loaded_chains_keep_their_row_ids(tmp_path):
    cfg = ScenarioConfig(edge_sites="all", seed=0)
    inst = build_instance(cfg, d0_m=45000.0, size=60)
    save_instance(tmp_path / "inst.yaml", inst)
    loaded = load_instance(tmp_path / "inst.yaml")
    # Loaded chains hold a VNF tuple each, so they share rows by equality.
    assert len({id(chain.vnfs) for chain in loaded.chains}) == len(loaded.chains)
    built, read = RateTable(inst), RateTable(loaded)
    ids = {chain.id: built.row(chain.id).id for chain in inst.chains}
    assert {chain.id: read.row(chain.id).id for chain in loaded.chains} == ids
    assert len(set(ids.values())) < len(ids)


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


# Every library entry point that builds its own rate table.
ENTRY_POINTS = {
    "solve_optimal": solver.solve_optimal,
    "brute_force": solver.brute_force,
    "run_method": lambda inst: solver.run_method("optimal", inst),
    "max_accepted_chains": solver.max_accepted_chains,
    "b_first": heuristics.b_first,
    "fixed_split": heuristics.fixed_split,
    "fixed_service": heuristics.fixed_service,
    "evaluate": lambda inst: evaluate(inst, Assignment({})),
    "build_ilp": build_ilp,
}

_VNF = VnfSpec(1.0, 1.0, 1.0)

# Instances that validate_instance rejects, with the problem it names.
INVALID = {
    "unknown-rrh": ((ChainRequest("c0", None, "zz", (_VNF,)),),
                    "chain c0 references unknown RRH zz"),
    "no-vnfs": ((ChainRequest("c0", None, "r0", ()),), "chain c0 has no VNFs"),
    "zero-bound": ((ChainRequest("c0", None, "r0", (_VNF, VnfSpec(1.0, 0.0, 1.0))),),
                   "chain c0 VNF 2 forward bound must be positive"),
    "duplicate-id": ((ChainRequest("c0", None, "r0", (_VNF,)),) * 2,
                     "duplicate chain id c0"),
    "negative-demand": ((ChainRequest("c0", None, "r0", (VnfSpec(-1.0, 1.0, 1.0),)),),
                        "chain c0 VNF 1 demand is negative"),
}


@pytest.mark.parametrize("case", sorted(INVALID))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_invalid_instances(entry, case):
    infra = Infrastructure(
        clouds=(CloudNode(0, 1e6), CloudNode(1, 1e6)),
        rrh_distances={"r0": {0: 1000.0, 1: 0.0}},
        cloud_distances={0: {0: 0.0, 1: 1000.0}, 1: {0: 1000.0, 1: 0.0}},
    )
    chains, problem = INVALID[case]
    with pytest.raises(ValueError, match=re.escape(problem)):
        ENTRY_POINTS[entry](Instance(infra=infra, chains=chains))


def test_rate_table_joins_every_problem_and_keeps_a_given_table():
    infra = Infrastructure(clouds=(CloudNode(0, 1e6),), rrh_distances={"r0": {0: 0.0}},
                           cloud_distances={0: {0: 0.0}})
    inst = Instance(infra, (ChainRequest("c0", None, "zz", ()),))
    with pytest.raises(ValueError, match="^chain c0 has no VNFs; chain c0 references unknown "
                                         "RRH zz$"):
        rates.rate_table(inst)
    table = RateTable(Instance(infra, ()))
    assert rates.rate_table(inst, table) is table
