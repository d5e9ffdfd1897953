"""Placement heuristics: best-fit with a single split trial, plus two
fixed baselines (static split point, static per-service routing)."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .model import ChainRequest, Instance
from .rates import CAP_TOL, INFEASIBLE, Assignment, RateTable, Solution, evaluate, rate_table


@dataclass
class PlacementEvent:
    """One accept/reject decision of the packing heuristic."""

    chain_id: str
    accepted: bool
    mode: str                      # "whole", "split" or "rejected"
    cloud: Optional[int] = None    # hosts the chain or its prefix
    suffix_cloud: Optional[int] = None
    split_after: Optional[int] = None
    added_rate: float = 0.0

    def as_line(self) -> str:
        fields = [f"chain={self.chain_id}",
                  f"outcome={'accept' if self.accepted else 'reject'}",
                  f"mode={self.mode}"]
        if self.cloud is not None:
            fields.append(f"cloud={self.cloud}")
        if self.suffix_cloud is not None:
            fields.append(f"suffix_cloud={self.suffix_cloud}")
        if self.split_after is not None:
            fields.append(f"split_after={self.split_after}")
        if self.accepted:
            fields.append(f"rate={self.added_rate:.6f}")
        return " ".join(fields)


@dataclass
class HeuristicResult:
    solution: Solution             # covers the accepted chains only
    events: list[PlacementEvent]
    evaluations: int               # placement candidates costed
    accepted_ids: list[str]


def packing_order(inst: Instance, table: RateTable) -> list[ChainRequest]:
    """inst's chains in decreasing demand, ties by chain id: the order in
    which b_first packs them and solve_optimal branches on them."""
    return sorted(inst.chains, key=lambda c: (-table.row(c.id).demand, c.id))


def b_first(inst: Instance, table: RateTable | None = None) -> HeuristicResult:
    """Best-fit packing of chains in decreasing demand order.

    Each chain first tries to fit whole into the fullest cloud that still
    holds it, the lowest cloud id among equally full ones.  If none does,
    every (split point, prefix cloud, suffix cloud) combination is priced
    by RateTable.chain_rates and the feasible one needing the least total
    rate wins; a chain is split at most once.  Totals within a relative
    1e-12 tie, and ties go to the earliest split point, then the lowest
    (prefix, suffix) cloud pair.  Rejected chains leave all state
    untouched.  The co-located rate of a chain's VNFs after the head is
    its VNF list's RowBody.tail, summed once per list.
    """
    table = rate_table(inst, table)
    position = table.position
    clouds = list(inst.infra.cloud_ids())
    residual = {k: inst.infra.capacity(k) for k in clouds}
    events: list[PlacementEvent] = []
    vectors: dict[str, tuple[int, ...]] = {}
    evaluations = 0

    for chain in packing_order(inst, table):
        cid = chain.id
        n_vnfs = len(chain.vnfs)
        row = table.row(cid)
        tail = row.body.tail
        # Best fit: ascending residual capacity; the sort is stable over
        # the ascending ids, so ties go to the lowest cloud id.
        for k in sorted(clouds, key=residual.__getitem__):
            evaluations += 1
            head = row.first[position[k]]
            if head == INFEASIBLE:
                continue
            total = head + tail
            if total <= residual[k] + CAP_TOL:
                vectors[cid] = (k,) * n_vnfs
                residual[k] -= total
                events.append(PlacementEvent(cid, True, "whole", cloud=k,
                                             added_rate=total))
                break
        if cid in vectors:      # placed whole
            continue
        # Split trial over (split point, prefix cloud, suffix cloud) in tie
        # order, priced by table.chain_rates: a candidate replaces the best
        # only when its total is lower by more than a relative 1e-12.
        best: Optional[tuple[float, int, int, int, float, float]] = None
        for p in range(1, n_vnfs):
            for k in clouds:
                for j in clouds:
                    if j == k:
                        continue
                    evaluations += 1
                    rates = table.chain_rates(cid, (k,) * p + (j,) * (n_vnfs - p))
                    if INFEASIBLE in rates:
                        continue
                    prefix, suffix = sum(rates[:p]), sum(rates[p:])
                    if prefix > residual[k] + CAP_TOL or suffix > residual[j] + CAP_TOL:
                        continue
                    total = prefix + suffix
                    if best is None or total < best[0] * (1 - 1e-12):
                        best = (total, p, k, j, prefix, suffix)
        if best is not None:
            total, p, k, j, prefix, suffix = best
            vectors[cid] = (k,) * p + (j,) * (n_vnfs - p)
            residual[k] -= prefix
            residual[j] -= suffix
            events.append(PlacementEvent(cid, True, "split", cloud=k,
                                         suffix_cloud=j, split_after=p,
                                         added_rate=total))
        else:
            events.append(PlacementEvent(cid, False, "rejected"))

    accepted_ids = [c.id for c in inst.chains if c.id in vectors]
    solution = evaluate(inst.subset(accepted_ids), Assignment(vectors), table)
    return HeuristicResult(solution=solution, events=events,
                           evaluations=evaluations, accepted_ids=accepted_ids)


def _fixed(inst: Instance, table: RateTable | None,
           clouds_of: Callable[[ChainRequest, int], tuple[int, ...]]) -> Solution:
    """Evaluate the placement clouds_of(chain, edge) of every chain, where
    edge is the nearest edge cloud of the chain's RRH, lowest id on ties,
    or the central cloud 0 when there is no edge cloud.  clouds_of reads
    only the chain's service and VNF count, so it runs once per distinct
    (service, VNF count, edge)."""
    clouds = inst.infra.cloud_ids()
    if 0 not in clouds:
        raise ValueError("fixed baselines need a central cloud with id 0")
    table = rate_table(inst, table)
    edges = [k for k in clouds if k != 0]
    dist = inst.infra.rrh_dist
    nearest = {rrh: min(edges, key=lambda k: (dist(rrh, k), k), default=0)
               for rrh in {chain.rrh for chain in inst.chains}}
    vectors, made = {}, {}      # made: (id of service, VNF count, edge) -> vector
    for chain in inst.chains:
        key = (id(chain.service), len(chain.vnfs), nearest[chain.rrh])
        if key not in made:
            made[key] = clouds_of(chain, key[2])
        vectors[chain.id] = made[key]
    return evaluate(inst, Assignment(vectors), table)


# fixed_split's split point: after the lower-MAC position.
FIXED_SPLIT_AFTER = 4


def fixed_split(inst: Instance, table: RateTable | None = None) -> Solution:
    """Static baseline: the first FIXED_SPLIT_AFTER VNFs at the nearest
    edge, the rest central.

    Chains shorter than the split point stay whole at the edge; with no
    edge clouds everything lands on the central cloud.
    """
    def clouds_of(chain: ChainRequest, edge: int) -> tuple[int, ...]:
        p = min(FIXED_SPLIT_AFTER, len(chain.vnfs))
        return (edge,) * p + (0,) * (len(chain.vnfs) - p)
    return _fixed(inst, table, clouds_of)


def fixed_service(inst: Instance, table: RateTable | None = None) -> Solution:
    """Static baseline routing whole chains by service class.

    Low-latency heavy traffic (URLLC2) goes to its nearest edge cloud,
    every other service to the central cloud.
    """
    def clouds_of(chain: ChainRequest, edge: int) -> tuple[int, ...]:
        name = chain.service.name.lower() if chain.service else ""
        return (edge if name == "urllc2" else 0,) * len(chain.vnfs)
    return _fixed(inst, table, clouds_of)
