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

from .model import ChainRequest, Infrastructure, Instance, check_instance

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


def split_penalty(gflops: float, bound_ms: float, delay_ms: float, base_rate: float) -> float:
    """Extra rate a VNF needs because one neighbor sits across a link of
    the given one-way delay (see comm_delay_ms): 0 when the link adds
    nothing over the co-located requirement, INFEASIBLE when the delay
    eats the entire bound."""
    if base_rate == INFEASIBLE:
        return INFEASIBLE
    margin = bound_ms - delay_ms
    if margin <= EPS_MS:
        return INFEASIBLE
    rate = rate_for_bound(gflops, margin)
    return rate - base_rate if rate > base_rate else 0.0


def first_vnf_rate(gflops: float, fwd_ms: float, bwd_ms: float,
                   rrh_dist_m: float, fiber_speed: float) -> float:
    """Base rate of the chain head, which always talks to the RRH over fiber."""
    margin = bwd_ms - comm_delay_ms(rrh_dist_m, fiber_speed)
    if margin <= EPS_MS:
        return INFEASIBLE
    return max(rate_for_bound(gflops, fwd_ms), rate_for_bound(gflops, margin))


@dataclass(frozen=True)
class Assignment:
    """The cloud of every VNF: vectors[chain id][n - 1] hosts VNF n."""

    vectors: Mapping[str, tuple[int, ...]]

    def cloud_of(self, chain_id: str, n: int) -> int:
        clouds = self.vectors[chain_id]
        if not 1 <= n <= len(clouds):
            raise KeyError((chain_id, n))
        return clouds[n - 1]

    @staticmethod
    def from_vectors(vectors: Mapping[str, Sequence[int]]) -> "Assignment":
        """Build from {chain id: [cloud of VNF 1, cloud of VNF 2, ...]}."""
        return Assignment({cid: tuple(clouds) for cid, clouds in vectors.items()})


@dataclass(frozen=True)
class Solution:
    """A fully evaluated deployment."""

    assignment: Assignment
    rates: Mapping[str, tuple[float, ...]]  # chain -> rate of VNF 1, 2, ...
    objective: float                        # sum of rates, GFLOPS/s
    loads: Mapping[int, float]              # cloud -> allocated rate
    feasible: bool
    violations: tuple[str, ...]


class ChainRow:
    """Rate data of one distinct (RRH, VNF list) chain signature, shared by
    every chain of that signature (see RateTable.row).  Callers read these
    fields as read-only; p and i are cloud positions in RateTable.cloud_ids.

    - id: the row's number, 0, 1, ... in first-seen order.
    - colo[n - 1]: the co-located rate of VNF n.
    - first[p]: the head's base rate at the p-th cloud, INFEASIBLE where
      the RRH link breaks its backward bound.
    - demand: the sum of the co-located rates; the packing order key.
    - children[n]: the choices for VNF n that the root bounds and
      build_ilp read, by cloud position.  Entry [p] lists, for VNF n-1 at
      the p-th cloud, one (i, self rate, backward penalty, forward penalty
      on VNF n-1) tuple per cloud in ascending id order.  The self rate is
      the co-located rate plus the backward penalty, INFEASIBLE where the
      split breaks a latency bound.  The head's entries do not depend on
      p: (i, first[i], 0, 0).
    - cheapest_first[n]: the search's choices for VNF n: children[n] with
      each list [p] sorted by the cost of a choice, its self rate plus its
      forward penalty on VNF n-1, then by i; INFEASIBLE choices come last.
    - zero_slack: the positions of the row's lexicographically smallest
      zero-slack path.  The head sits at the first least entry of first;
      after VNF n at the p-th cloud, VNF n+1 goes to the first position i,
      ascending, that is p or has split(n, p, i) == (0.0, 0.0).

    The head and co-located rates are computed at once; children,
    cheapest_first, zero_slack and each split penalty (see split) on first
    read.  A penalty is computed once per (VNF, direction, head cloud, link
    length): it depends on its link only through the link's length (see
    RateTable), and only the head's forward penalty on the cloud.
    """

    def __init__(self, infra: Infrastructure, cloud_ids: tuple[int, ...],
                 delays: list[float], length_of: list[list[int | None]],
                 chain: ChainRequest, row_id: int):
        self.id = row_id
        self._delays = delays
        self._length_of = length_of
        self._vnfs = chain.vnfs
        self._pens: dict[tuple[int, bool, int, int], float] = {}
        self.colo = [colocated_rate(x.gflops, x.fwd_ms, x.bwd_ms) for x in chain.vnfs]
        head = chain.vnfs[0]
        self.first = [first_vnf_rate(head.gflops, head.fwd_ms, head.bwd_ms,
                                     infra.rrh_dist(chain.rrh, k), infra.fiber_speed)
                      for k in cloud_ids]
        self.demand = sum(self.colo)

    def _penalty(self, n: int, forward: bool, p: int, c: int) -> float:
        """The penalty on VNF n at the p-th cloud when VNF n+1 (forward) or
        VNF n-1 (backward) sits across a link of the c-th length."""
        head = forward and n == 1
        key = (n, forward, p if head else 0, c)
        pen = self._pens.get(key)
        if pen is None:
            vnf = self._vnfs[n - 1]
            pen = self._pens[key] = split_penalty(
                vnf.gflops, vnf.fwd_ms if forward else vnf.bwd_ms, self._delays[c],
                self.first[p] if head else self.colo[n - 1])
        return pen

    @cached_property
    def zero_slack(self) -> tuple[int, ...]:
        length_of, penalty = self._length_of, self._penalty
        p = self.first.index(min(self.first))
        path = [p]
        for n in range(1, len(self._vnfs)):
            for i in range(len(length_of)):
                if i == p or (penalty(n, True, p, length_of[p][i]) == 0.0
                              and penalty(n + 1, False, i, length_of[i][p]) == 0.0):
                    break
            path.append(i)
            p = i
        return tuple(path)

    def split(self, n: int, p: int, i: int) -> tuple[float, float]:
        """The split after VNF n, with VNF n at the p-th cloud and VNF n+1
        at the i-th, p != i: (forward penalty on VNF n, backward penalty on
        VNF n+1)."""
        length_of = self._length_of
        return (self._penalty(n, True, p, length_of[p][i]),
                self._penalty(n + 1, False, i, length_of[i][p]))

    @cached_property
    def children(self) -> list[list[list[tuple[int, float, float, float]]]]:
        length_of = self._length_of
        positions = range(len(length_of))

        def per_length(n: int, forward: bool, p: int = 0) -> list[float]:
            return [self._penalty(n, forward, p, c) for c in range(len(self._delays))]

        head = [(i, first, 0.0, 0.0) for i, first in enumerate(self.first)]
        children = [[], [head] * len(length_of)]
        for n in range(2, len(self._vnfs) + 1):
            colo, bwd = self.colo[n - 1], per_length(n, False)
            fwd = ([per_length(1, True, p) for p in positions] if n == 2
                   else [per_length(n - 1, True)] * len(length_of))
            by_prev = []
            for p in positions:
                options = []
                for i in positions:
                    if i == p:
                        options.append((i, colo, 0.0, 0.0))
                        continue
                    pen_bwd = bwd[length_of[i][p]]
                    pen_fwd_prev = fwd[p][length_of[p][i]]
                    if pen_bwd == INFEASIBLE or pen_fwd_prev == INFEASIBLE:
                        options.append((i, INFEASIBLE, INFEASIBLE, INFEASIBLE))
                    else:
                        options.append((i, colo + pen_bwd, pen_bwd, pen_fwd_prev))
                by_prev.append(options)
            children.append(by_prev)
        return children

    @cached_property
    def cheapest_first(self) -> list[list[list[tuple[int, float, float, float]]]]:
        return [[sorted(options, key=lambda c: (c[1] + c[3], c[0])) for options in by_prev]
                for by_prev in self.children]


class RateTable:
    """Precomputed per-instance rate data, shared read-only by all solvers.

    One ChainRow per distinct chain signature (RRH, VNF list); row(chain
    id) returns it, and split reads its penalties by cloud id.  cloud_ids
    lists the clouds by position, and position[k] is the position of cloud
    id k; both are read-only.  The rows share length_of: length_of[p][i]
    is the index, among the distinct link lengths, of
    infra.dist(cloud_ids[p], cloud_ids[i]), None where p == i, as no link
    is crossed.
    """

    def __init__(self, inst: Instance):
        infra = inst.infra
        self.cloud_ids = infra.cloud_ids()
        self.position = {k: p for p, k in enumerate(self.cloud_ids)}
        index: dict[float, int] = {}    # link length -> its index
        length_of = [[None if k == j else index.setdefault(infra.dist(k, j), len(index))
                      for j in self.cloud_ids] for k in self.cloud_ids]
        # One-way delay of each link length, in the order of its index.
        delays = [comm_delay_ms(d, infra.fiber_speed) for d in index]
        rows: dict[tuple, ChainRow] = {}
        # Chains that hold one VNF tuple share its row without hashing every
        # VnfSpec in it; equal tuples still meet in rows.
        by_tuple: dict[tuple[str, int], ChainRow] = {}
        self._rows: dict[str, ChainRow] = {}
        for chain in inst.chains:
            key = (chain.rrh, id(chain.vnfs))
            row = by_tuple.get(key)
            if row is None:
                signature = (chain.rrh, chain.vnfs)
                row = rows.get(signature)
                if row is None:
                    row = ChainRow(infra, self.cloud_ids, delays, length_of, chain, len(rows))
                    rows[signature] = row
                by_tuple[key] = row
            self._rows[chain.id] = row

    def row(self, chain_id: str) -> ChainRow:
        """The chain's row, shared with every chain of the same signature."""
        return self._rows[chain_id]

    def split(self, chain_id: str, n: int, k: int, j: int) -> tuple[float, float]:
        """The split after VNF n, with VNF n at cloud k and VNF n+1 at cloud
        j: (forward penalty on VNF n, backward penalty on VNF n+1), both 0.0
        when k == j."""
        if k == j:
            return 0.0, 0.0
        return self._rows[chain_id].split(n, self.position[k], self.position[j])

    def chain_rates(self, chain_id: str, clouds: Sequence[int]) -> list[float]:
        """Rate of every VNF of a chain placed on clouds[0], clouds[1], ...

        Each VNF needs its co-located rate (or the RRH-aware rate for the
        chain head) plus the worst split penalty among the neighbors
        placed on other clouds.  INFEASIBLE where any implied link cannot
        meet its bound.
        """
        row = self._rows[chain_id]
        at = [self.position[k] for k in clouds]
        pens = [0.0] * len(at)
        for n in range(1, len(at)):
            p, i = at[n - 1], at[n]
            if p != i:
                fwd, pens[n] = row.split(n, p, i)
                pens[n - 1] = max(pens[n - 1], fwd)
        bases = [row.first[at[0]], *row.colo[1:]]
        return [base + pen for base, pen in zip(bases, pens)]


def rate_table(inst: Instance, table: RateTable | None = None) -> RateTable:
    """table, or else the RateTable of inst once check_instance passes it:
    ValueError listing every validate_instance problem otherwise."""
    return RateTable(check_instance(inst)) if table is None else table


def evaluate(inst: Instance, a: Assignment, table: RateTable | None = None) -> Solution:
    """Evaluate a total assignment into rates, loads and a feasibility verdict.

    Collects every violated constraint instead of stopping at the first,
    so an infeasible deployment reports all of its problems at once.
    Raises ValueError naming the chain when a chain of inst has no
    vector, a vector of the wrong length, a cloud not in inst or no row in
    table; vectors of chains not in inst are ignored.

    One call costs each distinct (row, placement) once: chains that share
    a RateTable row and a cloud vector share one rate tuple.  Rates are
    added to the objective and loads in chain order, then VNF order.
    """
    table = rate_table(inst, table)
    violations: list[str] = []
    rates: dict[str, tuple[float, ...]] = {}
    loads: dict[int, float] = {k: 0.0 for k in inst.infra.cloud_ids()}
    objective = 0.0
    costed: dict[tuple[ChainRow, tuple[int, ...]], tuple[float, ...]] = {}
    for chain in inst.chains:
        cid = chain.id
        clouds = a.vectors.get(cid)
        if clouds is None or len(clouds) != len(chain.vnfs):
            raise ValueError(f"chain {cid}: cloud vector {clouds!r} for {len(chain.vnfs)} VNFs")
        try:
            row = table.row(cid)
        except KeyError:
            raise ValueError(f"chain {cid}: not in the rate table") from None
        key = (row, tuple(clouds))
        per_vnf = costed.get(key)
        if per_vnf is None:
            try:
                per_vnf = costed[key] = tuple(table.chain_rates(cid, clouds))
            except KeyError as exc:
                raise ValueError(f"chain {cid}: no cloud {exc.args[0]!r} in the instance") from None
        rates[cid] = per_vnf
        for k, rate in zip(clouds, per_vnf):
            objective += rate
            loads[k] += rate
        if INFEASIBLE not in per_vnf:
            continue
        for n, (k, rate) in enumerate(zip(clouds, per_vnf), start=1):
            if rate != INFEASIBLE:
                continue
            if n == 1 and row.first[table.position[k]] == INFEASIBLE:
                violations.append(
                    f"chain {cid} VNF 1 at cloud {k}: RRH link exceeds the backward bound")
            if n < len(clouds):
                j = clouds[n]
                if table.split(cid, n, k, j)[0] == INFEASIBLE:
                    violations.append(
                        f"chain {cid} split ({n},{n + 1}) across clouds ({k},{j}) "
                        f"exceeds the forward bound")
            if n > 1:
                j = clouds[n - 2]
                if table.split(cid, n - 1, j, k)[1] == INFEASIBLE:
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
