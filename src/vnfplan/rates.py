"""Rate allocation math: capacity a VNF must be granted at its cloud.

A VNF of demand g GFLOPS finishing within t milliseconds needs a rate of
1000 * g / t GFLOPS/s.  Placing adjacent VNFs on different clouds spends
part of the latency bound on fiber propagation, which shows up here as a
penalty on top of the co-located rate.  Latency-infeasible placements get
the INFEASIBLE sentinel (infinity) rather than a large constant, so they
can never masquerade as finite objectives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .model import ChainRequest, Infrastructure, Instance

INFEASIBLE = math.inf

# Margins of one nanosecond or less count as infeasible: the latency bounds
# are treated as closed sets and an exact-zero margin would need infinite rate.
EPS_MS = 1e-6

# Absolute slack for capacity feasibility comparisons, in GFLOPS/s.
CAP_TOL = 1e-9


def comm_delay_ms(dist_m: float, fiber_speed: float) -> float:
    """One-way fiber propagation delay in ms (speed given in m/us)."""
    return dist_m / fiber_speed / 1000.0


def rate_for_bound(gflops: float, bound_ms: float) -> float:
    """Rate in GFLOPS/s that finishes the work inside the bound."""
    return 1000.0 * gflops / bound_ms


def colocated_rate(gflops: float, fwd_ms: float, bwd_ms: float) -> float:
    """Rate needed when both neighbors share the VNF's cloud."""
    return rate_for_bound(gflops, min(fwd_ms, bwd_ms))


def split_penalty(gflops: float, bound_ms: float, dist_m: float,
                  fiber_speed: float, base_rate: float) -> float:
    """Extra rate a VNF needs because one neighbor sits across a link.

    Returns 0 when the link adds nothing over the co-located requirement,
    INFEASIBLE when the delay eats the entire bound.
    """
    if base_rate == INFEASIBLE:
        return INFEASIBLE
    margin = bound_ms - comm_delay_ms(dist_m, fiber_speed)
    if margin <= EPS_MS:
        return INFEASIBLE
    return max(rate_for_bound(gflops, margin), base_rate) - base_rate


def first_vnf_rate(gflops: float, fwd_ms: float, bwd_ms: float,
                   rrh_dist_m: float, fiber_speed: float) -> float:
    """Base rate of the chain head, which always talks to the RRH over fiber."""
    margin = bwd_ms - comm_delay_ms(rrh_dist_m, fiber_speed)
    if margin <= EPS_MS:
        return INFEASIBLE
    return max(rate_for_bound(gflops, fwd_ms), rate_for_bound(gflops, margin))


@dataclass(frozen=True)
class Assignment:
    """Maps every (chain id, VNF position) to a cloud id.  Positions are 1-based."""

    x: Mapping[tuple[str, int], int]

    def cloud_of(self, chain_id: str, n: int) -> int:
        return self.x[(chain_id, n)]

    @staticmethod
    def from_vectors(vectors: Mapping[str, Sequence[int]]) -> "Assignment":
        """Build from {chain id: [cloud of VNF 1, cloud of VNF 2, ...]}."""
        x = {}
        for chain_id, clouds in vectors.items():
            for n, k in enumerate(clouds, start=1):
                x[(chain_id, n)] = k
        return Assignment(x=x)


@dataclass(frozen=True)
class Solution:
    """A fully evaluated deployment."""

    assignment: Assignment
    rates: Mapping[tuple[str, int], tuple[int, float]]  # (chain, n) -> (cloud, rate)
    objective: float                                     # sum of rates, GFLOPS/s
    loads: Mapping[int, float]                           # cloud -> allocated rate
    feasible: bool
    violations: tuple[str, ...]


def _per_length(links: Mapping[float, list[tuple[int, int]]], gflops: float,
                bound_ms: float, fiber_speed: float, base_rate: float) -> list[float]:
    """split_penalty for every link in links order, computed once per length."""
    pens: list[float] = []
    for d, pairs in links.items():
        pens += [split_penalty(gflops, bound_ms, d, fiber_speed, base_rate)] * len(pairs)
    return pens


class _ChainRow:
    """Rate data of one distinct (RRH, VNF list) chain signature.

    The co-located and head rates are computed at once.  The split
    penalties are computed the first time they are read, because
    placements that keep every chain on one cloud never read them.
    fwd[n] (bwd[n]) maps a cloud pair (k, j) to the penalty on VNF n at
    cloud k when VNF n+1 (n-1) sits at cloud j; the lists are indexed by
    position, so their slots below the first valid n are empty.
    children[n] is the branch and bound's view of VNF n, also built on
    first read; see RateTable.children.
    """

    def __init__(self, infra: Infrastructure, cloud_ids: tuple[int, ...],
                 links: Mapping[float, list[tuple[int, int]]],
                 pairs: list[tuple[int, int]], chain: ChainRequest):
        self._cloud_ids = cloud_ids
        self._fiber_speed = infra.fiber_speed
        self._links = links
        self._pairs = pairs
        self._vnfs = chain.vnfs
        self.colo = [colocated_rate(x.gflops, x.fwd_ms, x.bwd_ms) for x in chain.vnfs]
        self.first = {}
        for k in cloud_ids:
            head = chain.vnfs[0]
            self.first[k] = first_vnf_rate(head.gflops, head.fwd_ms, head.bwd_ms,
                                           infra.rrh_dist(chain.rrh, k), self._fiber_speed)
        self.demand = sum(self.colo)

    # Past the head, a penalty depends on its link only through the length.

    @cached_property
    def fwd(self) -> list[dict[tuple[int, int], float]]:
        v, links = self._fiber_speed, self._links
        fwd: list[dict[tuple[int, int], float]] = [{}]
        for n in range(1, len(self._vnfs)):
            vnf = self._vnfs[n - 1]
            if n == 1:
                pens = [split_penalty(vnf.gflops, vnf.fwd_ms, d, v, self.first[k])
                        for d, group in links.items() for k, _ in group]
            else:
                pens = _per_length(links, vnf.gflops, vnf.fwd_ms, v, self.colo[n - 1])
            fwd.append(dict(zip(self._pairs, pens)))
        return fwd

    @cached_property
    def bwd(self) -> list[dict[tuple[int, int], float]]:
        bwd: list[dict[tuple[int, int], float]] = [{}, {}]
        for n in range(2, len(self._vnfs) + 1):
            vnf = self._vnfs[n - 1]
            pens = _per_length(self._links, vnf.gflops, vnf.bwd_ms, self._fiber_speed,
                               self.colo[n - 1])
            bwd.append(dict(zip(self._pairs, pens)))
        return bwd

    @cached_property
    def children(self) -> list[list[list[tuple[int, float, float, float]]]]:
        ids = self._cloud_ids
        head = [(i, self.first[k], 0.0, 0.0) for i, k in enumerate(ids)]
        children = [[], [head] * len(ids)]
        for n in range(2, len(self._vnfs) + 1):
            colo, fwd, bwd = self.colo[n - 1], self.fwd[n - 1], self.bwd[n]
            by_prev = []
            for j in ids:
                options = []
                for i, k in enumerate(ids):
                    if k == j:
                        options.append((i, colo, 0.0, 0.0))
                        continue
                    pen_bwd, pen_fwd_prev = bwd[(k, j)], fwd[(j, k)]
                    if pen_bwd == INFEASIBLE or pen_fwd_prev == INFEASIBLE:
                        options.append((i, INFEASIBLE, INFEASIBLE, INFEASIBLE))
                    else:
                        options.append((i, colo + pen_bwd, pen_bwd, pen_fwd_prev))
                by_prev.append(options)
            children.append(by_prev)
        return children


class RateTable:
    """Precomputed per-instance rate data, shared read-only by all solvers.

    Holds one row per distinct chain signature (RRH, VNF list): the
    co-located rate of each VNF, the base rate of VNF 1 at each cloud, and
    the forward/backward split penalties for every ordered cloud pair (a
    row computes its penalties on their first read).  Chains with equal
    signatures share a row; chain ids map to rows.
    """

    def __init__(self, inst: Instance):
        infra = inst.infra
        self.cloud_ids = infra.cloud_ids()
        # Ordered pairs of distinct clouds, grouped by link length.
        links: dict[float, list[tuple[int, int]]] = {}
        for k in self.cloud_ids:
            for j in self.cloud_ids:
                if k != j:
                    links.setdefault(infra.dist(k, j), []).append((k, j))
        pairs = [pair for group in links.values() for pair in group]
        rows: dict[tuple, _ChainRow] = {}
        self._rows: dict[str, _ChainRow] = {}
        for chain in inst.chains:
            signature = (chain.rrh, chain.vnfs)
            row = rows.get(signature)
            if row is None:
                row = _ChainRow(infra, self.cloud_ids, links, pairs, chain)
                rows[signature] = row
            self._rows[chain.id] = row

    def colocated(self, chain_id: str, n: int) -> float:
        return self._rows[chain_id].colo[n - 1]

    def first_rate(self, chain_id: str, k: int) -> float:
        return self._rows[chain_id].first[k]

    def placement_feasible(self, chain_id: str, k: int) -> bool:
        """Whether the chain head may sit at cloud k at all."""
        return self._rows[chain_id].first[k] != INFEASIBLE

    def split_penalty_fwd(self, chain_id: str, n: int, k: int, j: int) -> float:
        """Penalty on VNF n at cloud k when VNF n+1 sits at cloud j."""
        if k == j:
            return 0.0
        return self._rows[chain_id].fwd[n][(k, j)]

    def split_penalty_bwd(self, chain_id: str, n: int, k: int, j: int) -> float:
        """Penalty on VNF n at cloud k when VNF n-1 sits at cloud j."""
        if k == j:
            return 0.0
        return self._rows[chain_id].bwd[n][(k, j)]

    def children(self, chain_id: str, n: int) -> list[list[tuple[int, float, float, float]]]:
        """The branch and bound's choices for VNF n, by cloud index.

        Entry [p] lists, for VNF n-1 at the p-th cloud of cloud_ids, one
        (cloud index, self rate, backward penalty, forward penalty on VNF
        n-1) tuple per cloud in ascending id order; the self rate is the
        co-located rate plus the backward penalty.  Splits that break a
        latency bound have an INFEASIBLE self rate.  The chain head does
        not depend on p: its entries are (cloud index, head rate, 0, 0),
        with INFEASIBLE where the RRH link breaks the backward bound.
        """
        return self._rows[chain_id].children[n]

    def chain_demand(self, chain_id: str) -> float:
        """Sum of co-located rates; the packing order key for heuristics."""
        return self._rows[chain_id].demand

    def chain_rates(self, chain_id: str, clouds: Sequence[int]) -> list[float]:
        """Rate of every VNF of a chain placed on clouds[0], clouds[1], ...

        Each VNF needs its co-located rate (or the RRH-aware rate for the
        chain head) plus the worst split penalty among the neighbors
        placed on other clouds.  INFEASIBLE where any implied link cannot
        meet its bound.
        """
        row = self._rows[chain_id]
        colo = row.colo
        n_vnfs = len(colo)
        k = clouds[0]
        base = row.first[k]
        if base == INFEASIBLE or n_vnfs == 1:
            rates = [base]
        else:
            j = clouds[1]
            rates = [base + (0.0 if k == j else row.fwd[1][(k, j)])]
        for n in range(2, n_vnfs + 1):
            prev, k = k, clouds[n - 1]
            base = colo[n - 1]
            pen_bwd = 0.0 if k == prev else row.bwd[n][(k, prev)]
            if n < n_vnfs:
                j = clouds[n]
                pen_fwd = 0.0 if k == j else row.fwd[n][(k, j)]
                rates.append(base + max(pen_fwd, pen_bwd))
            else:
                rates.append(base + pen_bwd)
        return rates


def evaluate(inst: Instance, a: Assignment, table: RateTable | None = None) -> Solution:
    """Evaluate a total assignment into rates, loads and a feasibility verdict.

    Collects every violated constraint instead of stopping at the first,
    so an infeasible deployment reports all of its problems at once.
    """
    if table is None:
        table = RateTable(inst)
    violations: list[str] = []
    rates: dict[tuple[str, int], tuple[int, float]] = {}
    loads: dict[int, float] = {k: 0.0 for k in inst.infra.cloud_ids()}
    objective = 0.0
    x = a.x
    for chain in inst.chains:
        cid = chain.id
        n_vnfs = len(chain.vnfs)
        clouds = [x[(cid, n)] for n in range(1, n_vnfs + 1)]
        per_vnf = table.chain_rates(cid, clouds)
        for n, (k, rate) in enumerate(zip(clouds, per_vnf), start=1):
            rates[(cid, n)] = (k, rate)
            objective += rate
            loads[k] += rate
            if rate != INFEASIBLE:
                continue
            if n == 1 and not table.placement_feasible(cid, k):
                violations.append(
                    f"chain {cid} VNF 1 at cloud {k}: RRH link exceeds the backward bound")
            if n < n_vnfs:
                j = clouds[n]
                if table.split_penalty_fwd(cid, n, k, j) == INFEASIBLE:
                    violations.append(
                        f"chain {cid} split ({n},{n + 1}) across clouds ({k},{j}) "
                        f"exceeds the forward bound")
            if n > 1:
                j = clouds[n - 2]
                if table.split_penalty_bwd(cid, n, k, j) == INFEASIBLE:
                    violations.append(
                        f"chain {cid} split ({n - 1},{n}) across clouds ({j},{k}) "
                        f"exceeds the backward bound")
    for k in sorted(loads):
        cap = inst.infra.capacity(k)
        if loads[k] > cap + CAP_TOL:
            violations.append(
                f"cloud {k} over capacity: load {loads[k]} exceeds {cap}")
    return Solution(
        assignment=a,
        rates=rates,
        objective=objective,
        loads=loads,
        feasible=not violations,
        violations=tuple(violations),
    )
