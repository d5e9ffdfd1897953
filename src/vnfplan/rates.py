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

from .model import Infrastructure, Instance, check_instance

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


class RowBody:
    """What the rows of one VNF list share (see ChainRow): vnfs, colo,
    demand, tail (the sum of colo past the head), and children[n] and
    cheapest_first[n] for n >= 3 (None below), both built on first read."""

    def __init__(self, vnfs: tuple, delays: list[float], length_of: list[list[int | None]]):
        self.vnfs, self.delays, self.length_of = vnfs, delays, length_of
        self.colo = [colocated_rate(x.gflops, x.fwd_ms, x.bwd_ms) for x in vnfs]
        self.demand = sum(self.colo)
        self.tail = sum(self.colo[1:])

    def penalty(self, n: int, forward: bool, c: int, base: float) -> float:
        """VNF n's penalty across a link of the c-th length (see split)."""
        vnf = self.vnfs[n - 1]
        return split_penalty(vnf.gflops, vnf.fwd_ms if forward else vnf.bwd_ms,
                             self.delays[c], base)

    def per_length(self, n: int, forward: bool, base: float) -> list[float]:
        return [self.penalty(n, forward, c, base) for c in range(len(self.delays))]

    def options(self, n: int, fwd: list[list[float]]) -> list[list[tuple]]:
        """ChainRow.children[n], n >= 2, with fwd[p][c] the forward
        penalty on VNF n-1 at the p-th cloud across a link of the c-th
        length."""
        length_of = self.length_of
        colo = self.colo[n - 1]
        bwd = self.per_length(n, False, colo)
        by_prev = []
        for p, pen_fwd in enumerate(fwd):
            options = []
            for i, back in enumerate(length_of):
                if i == p:
                    options.append((i, colo, 0.0, 0.0))
                    continue
                pen_bwd = bwd[back[p]]
                pen_fwd_prev = pen_fwd[length_of[p][i]]
                if pen_bwd == INFEASIBLE or pen_fwd_prev == INFEASIBLE:
                    options.append((i, INFEASIBLE, INFEASIBLE, INFEASIBLE))
                else:
                    options.append((i, colo + pen_bwd, pen_bwd, pen_fwd_prev))
            by_prev.append(options)
        return by_prev

    @cached_property
    def children(self) -> list:
        K = len(self.length_of)
        return [None] * 3 + [self.options(n, [self.per_length(n - 1, True, self.colo[n - 2])] * K)
                             for n in range(3, len(self.vnfs) + 1)]

    @cached_property
    def cheapest_first(self) -> list:
        return [None] * 3 + [_cheapest(by_prev) for by_prev in self.children[3:]]

    def step(self, n: int, p: int, base: float) -> int:
        """The zero-slack position of VNF n+1 after VNF n, of base rate
        base, at the p-th cloud (see ChainRow.zero_slack)."""
        length_of = self.length_of
        for i in range(len(length_of)):
            if i == p or (self.penalty(n, True, length_of[p][i], base) == 0.0 and
                          self.penalty(n + 1, False, length_of[i][p], self.colo[n]) == 0.0):
                return i


def _cheapest(by_prev: list[list[tuple]]) -> list[list[tuple]]:
    return [sorted(options, key=lambda c: (c[1] + c[3], c[0])) for options in by_prev]


class ChainRow:
    """Rate data of one distinct (RRH, VNF list) chain signature, shared by
    every chain of that signature (see RateTable.row).  Callers read these
    fields as read-only; p and i are cloud positions in RateTable.cloud_ids.

    - id: the row's number, 0, 1, ... in first-seen order.
    - body: the RowBody of the VNF list.
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
      p: one list of (i, first[i], 0, 0) serves every p, in children and,
      sorted once, in cheapest_first, so a walk over children[1:] starts
      from p = 0 with no backward penalty.
    - cheapest_first[n]: the search's choices for VNF n: children[n] with
      each list [p] sorted by the cost of a choice, its self rate plus its
      forward penalty on VNF n-1, then by i; INFEASIBLE choices come last.
    - zero_slack: the positions of the row's lexicographically smallest
      zero-slack path.  The head sits at the first least entry of first;
      after VNF n at the p-th cloud, VNF n+1 goes to the first position i,
      ascending, that is p or has split(n, p, i) == (0.0, 0.0).

    Only the head depends on the RRH, so the rows of one VNF list share
    their body, read-only: colo, demand, body.tail, and children[n] and
    cheapest_first[n] for n >= 3.  A row computes first at once and the
    rest on first read; zero_slack walks its steps through RowBody.step,
    which computes only the penalties it tests, and split computes each
    penalty where it is read.  A penalty depends on its link only through
    the link's length (see RateTable), so children computes one per VNF,
    direction and link length, and per head cloud for the head's forward
    penalties.
    """

    def __init__(self, infra: Infrastructure, cloud_ids: tuple[int, ...], body: RowBody,
                 rrh: str, row_id: int):
        self.id = row_id
        self.body = body
        self.colo = body.colo
        self.demand = body.demand
        head = body.vnfs[0]
        self.first = [first_vnf_rate(head.gflops, head.fwd_ms, head.bwd_ms,
                                     infra.rrh_dist(rrh, k), infra.fiber_speed)
                      for k in cloud_ids]

    @cached_property
    def zero_slack(self) -> tuple[int, ...]:
        path = [self.first.index(min(self.first))]
        base = self.first[path[0]]
        for n in range(1, len(self.colo)):
            path.append(self.body.step(n, path[-1], base))
            base = self.colo[n]
        return tuple(path)

    def rates(self, at: Sequence[int]) -> list[float]:
        """Rate of every VNF of a chain of this row placed at the cloud
        positions at[0], at[1], ...: see RateTable.chain_rates."""
        pens = [0.0] * len(at)
        for n in range(1, len(at)):
            p, i = at[n - 1], at[n]
            if p != i:
                fwd, pens[n] = self.split(n, p, i)
                pens[n - 1] = max(pens[n - 1], fwd)
        bases = [self.first[at[0]], *self.colo[1:]]
        return [base + pen for base, pen in zip(bases, pens)]

    def split(self, n: int, p: int, i: int) -> tuple[float, float]:
        """The split after VNF n, with VNF n at the p-th cloud and VNF n+1
        at the i-th, p != i: (forward penalty on VNF n, backward penalty on
        VNF n+1)."""
        body, colo = self.body, self.colo
        return (body.penalty(n, True, body.length_of[p][i],
                             self.first[p] if n == 1 else colo[n - 1]),
                body.penalty(n + 1, False, body.length_of[i][p], colo[n]))

    @cached_property
    def children(self) -> list[list[list[tuple[int, float, float, float]]]]:
        body = self.body
        head = [(i, first, 0.0, 0.0) for i, first in enumerate(self.first)]
        children = [[], [head] * len(self.first)]
        if len(self.colo) > 1:
            fwd = [body.per_length(1, True, first) for first in self.first]
            children.append(body.options(2, fwd))
        return children + body.children[3:]

    @cached_property
    def cheapest_first(self) -> list[list[list[tuple[int, float, float, float]]]]:
        children = self.children
        return [[], _cheapest(children[1][:1]) * len(self.first),
                *map(_cheapest, children[2:3]), *self.body.cheapest_first[3:]]


class RateTable:
    """Precomputed per-instance rate data, shared read-only by all solvers.

    One ChainRow per distinct chain signature (RRH, VNF list); row(chain
    id) returns it, and split reads its penalties by cloud id.  The rows
    of one VNF list, found by equality, share one RowBody.  cloud_ids
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
        bodies: dict[tuple, RowBody] = {}
        # Chains that hold one VNF tuple share its body without hashing
        # every VnfSpec in it; equal tuples still meet in bodies.
        by_tuple: dict[int, RowBody] = {}
        rows: dict[tuple[str, RowBody], ChainRow] = {}
        self._rows: dict[str, ChainRow] = {}
        for chain in inst.chains:
            body = by_tuple.get(id(chain.vnfs))
            if body is None:
                body = bodies.get(chain.vnfs)
                if body is None:
                    body = bodies[chain.vnfs] = RowBody(chain.vnfs, delays, length_of)
                by_tuple[id(chain.vnfs)] = body
            row = rows.get((chain.rrh, body))
            if row is None:
                row = rows[chain.rrh, body] = ChainRow(infra, self.cloud_ids, body, chain.rrh,
                                                       len(rows))
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
        return self._rows[chain_id].rates([self.position[k] for k in clouds])


def rate_table(inst: Instance, table: RateTable | None = None) -> RateTable:
    """table, or else the RateTable of inst once check_instance passes it:
    ValueError listing every validate_instance problem otherwise."""
    return RateTable(check_instance(inst)) if table is None else table


def evaluate(inst: Instance, a: Assignment, table: RateTable | None = None) -> Solution:
    """Evaluate a total assignment into rates, loads and a feasibility verdict.

    Collects every violated constraint instead of stopping at the first,
    so an infeasible deployment reports all of its problems at once.
    Raises ValueError naming the chain when a chain of inst has no
    vector, a vector of the wrong length, a cloud not in inst or not in
    table, or no row in table; vectors of chains not in inst are ignored.

    One call costs each distinct (row, placement) once: chains that share
    a RateTable row and a cloud vector share one rate tuple and one list
    of latency violations, which each chain prefixes with its own id.
    Rates are added to the objective and loads in chain order, then VNF
    order, so the sums are the same floats as a chain-by-chain loop.
    """
    table = rate_table(inst, table)
    cloud_ids = inst.infra.cloud_ids()
    position = table.position
    if cloud_ids != table.cloud_ids:
        # Only the clouds that both inst and table have can host a VNF.
        position = {k: p for k, p in position.items() if k in cloud_ids}
    totals = [0.0] * len(table.cloud_ids)   # the load of table.cloud_ids[p]
    violations: list[str] = []
    rates: dict[str, tuple[float, ...]] = {}
    objective = 0.0
    # (row, cloud vector) -> (its rates, the position of each cloud, its
    # latency violations without the "chain <id> " prefix or None if none)
    costed: dict[tuple[ChainRow, tuple[int, ...]],
                 tuple[tuple[float, ...], list[int], list[str] | None]] = {}
    for chain in inst.chains:
        cid = chain.id
        clouds = a.vectors.get(cid)
        if clouds is None or len(clouds) != len(chain.vnfs):
            raise ValueError(f"chain {cid}: cloud vector {clouds!r} for {len(chain.vnfs)} VNFs")
        try:
            row = table.row(cid)
        except KeyError:
            raise ValueError(f"chain {cid}: not in the rate table") from None
        vector = tuple(clouds)
        key = (row, vector)
        entry = costed.get(key)
        if entry is None:
            try:
                at = [position[k] for k in vector]
            except KeyError as exc:
                raise ValueError(f"chain {cid}: no cloud {exc.args[0]!r} in the instance") from None
            per_vnf = tuple(row.rates(at))
            latency = (_latency_violations(table, cid, vector, per_vnf)
                       if INFEASIBLE in per_vnf else None)
            entry = costed[key] = per_vnf, at, latency
        per_vnf, at, latency = entry
        rates[cid] = per_vnf
        for p, rate in zip(at, per_vnf):
            objective += rate
            totals[p] += rate
        if latency is not None:
            violations += [f"chain {cid} {line}" for line in latency]
    loads = {k: 0.0 for k in cloud_ids}
    for k, p in position.items():
        loads[k] = totals[p]
    for k, load in loads.items():
        cap = inst.infra.capacity(k)
        if load > cap + CAP_TOL:
            violations.append(f"cloud {k} over capacity: load {load} exceeds {cap}")
    return Solution(
        assignment=a,
        rates=rates,
        objective=objective,
        loads=loads,
        feasible=not violations,
        violations=tuple(violations),
    )


def _latency_violations(table: RateTable, chain_id: str, clouds: tuple[int, ...],
                        per_vnf: tuple[float, ...]) -> list[str]:
    """The latency bounds that the chain's placement on clouds breaks, in
    VNF order, each without the "chain <id> " prefix."""
    row = table.row(chain_id)
    lines = []
    for n, (k, rate) in enumerate(zip(clouds, per_vnf), start=1):
        if rate != INFEASIBLE:
            continue
        if n == 1 and row.first[table.position[k]] == INFEASIBLE:
            lines.append(f"VNF 1 at cloud {k}: RRH link exceeds the backward bound")
        if n < len(clouds):
            j = clouds[n]
            if table.split(chain_id, n, k, j)[0] == INFEASIBLE:
                lines.append(f"split ({n},{n + 1}) across clouds ({k},{j}) "
                             f"exceeds the forward bound")
        if n > 1:
            j = clouds[n - 2]
            if table.split(chain_id, n - 1, j, k)[1] == INFEASIBLE:
                lines.append(f"split ({n - 1},{n}) across clouds ({j},{k}) "
                             f"exceeds the backward bound")
    return lines
