"""Placement heuristics: best-fit with a single split trial, plus two
fixed baselines (static split point, static per-service routing)."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import Instance
from .rates import CAP_TOL, INFEASIBLE, Assignment, RateTable, Solution, evaluate


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


def b_first(inst: Instance, table: RateTable | None = None) -> HeuristicResult:
    """Best-fit packing of chains in decreasing demand order.

    Each chain first tries to fit whole into the fullest cloud that still
    holds it.  If none does, every (prefix cloud, suffix cloud, split
    point) combination is costed and the feasible one needing the least
    total rate wins; a chain is split at most once.  Rejected chains
    leave all state untouched.
    """
    if table is None:
        table = RateTable(inst)
    clouds = list(inst.infra.cloud_ids())
    residual = {k: inst.infra.capacity(k) for k in clouds}
    events: list[PlacementEvent] = []
    vectors: dict[str, list[int]] = {}
    evaluations = 0

    order = sorted(inst.chains, key=lambda c: (-table.chain_demand(c.id), c.id))
    for chain in order:
        cid = chain.id
        n_vnfs = len(chain.vnfs)
        tail = sum(table.colocated(cid, n) for n in range(2, n_vnfs + 1))
        placed = False
        # Best fit: ascending residual capacity, lowest cloud id on ties.
        for k in sorted(clouds, key=lambda c: (residual[c], c)):
            evaluations += 1
            head = table.first_rate(cid, k)
            if head == INFEASIBLE:
                continue
            total = head + tail
            if total <= residual[k] + CAP_TOL:
                vectors[cid] = [k] * n_vnfs
                residual[k] -= total
                events.append(PlacementEvent(cid, True, "whole", cloud=k,
                                             added_rate=total))
                placed = True
                break
        if placed:
            continue
        # Split trial: smallest combined rate over all feasible
        # (prefix cloud, suffix cloud, split point); ties prefer the
        # earliest split point, then the lowest cloud pair.
        best: Optional[tuple[float, int, int, int, float, float]] = None
        for k in clouds:
            head = table.first_rate(cid, k)
            for j in clouds:
                if j == k:
                    continue
                for p in range(1, n_vnfs):
                    evaluations += 1
                    if head == INFEASIBLE:
                        continue
                    pen_fwd = table.split_penalty_fwd(cid, p, k, j)
                    pen_bwd = table.split_penalty_bwd(cid, p + 1, j, k)
                    if pen_fwd == INFEASIBLE or pen_bwd == INFEASIBLE:
                        continue
                    prefix = head + sum(table.colocated(cid, n)
                                        for n in range(2, p + 1)) + pen_fwd
                    suffix = pen_bwd + sum(table.colocated(cid, n)
                                           for n in range(p + 1, n_vnfs + 1))
                    if prefix > residual[k] + CAP_TOL or suffix > residual[j] + CAP_TOL:
                        continue
                    cand = (prefix + suffix, p, k, j, prefix, suffix)
                    if best is None or cand[:4] < best[:4]:
                        best = cand
        if best is not None:
            _, p, k, j, prefix, suffix = best
            vectors[cid] = [k] * p + [j] * (n_vnfs - p)
            residual[k] -= prefix
            residual[j] -= suffix
            events.append(PlacementEvent(cid, True, "split", cloud=k,
                                         suffix_cloud=j, split_after=p,
                                         added_rate=prefix + suffix))
        else:
            events.append(PlacementEvent(cid, False, "rejected"))

    accepted_ids = [c.id for c in inst.chains if c.id in vectors]
    solution = evaluate(inst.subset(accepted_ids), Assignment.from_vectors(vectors),
                        table)
    return HeuristicResult(solution=solution, events=events,
                           evaluations=evaluations, accepted_ids=accepted_ids)


def _nearest_edge(inst: Instance, rrh: str) -> Optional[int]:
    edges = [k for k in inst.infra.cloud_ids() if k != 0]
    if not edges:
        return None
    return min(edges, key=lambda k: (inst.infra.rrh_dist(rrh, k), k))


def _require_central(inst: Instance) -> None:
    if 0 not in inst.infra.cloud_ids():
        raise ValueError("fixed baselines need a central cloud with id 0")


# fixed_split's split point: after the lower-MAC position.
FIXED_SPLIT_AFTER = 4


def fixed_split(inst: Instance, table: RateTable | None = None) -> Solution:
    """Static baseline: the first FIXED_SPLIT_AFTER VNFs at the nearest
    edge, the rest central.

    Chains shorter than the split point stay whole at the edge; with no
    edge clouds everything lands on the central cloud.
    """
    _require_central(inst)
    vectors = {}
    for chain in inst.chains:
        edge = _nearest_edge(inst, chain.rrh)
        n_vnfs = len(chain.vnfs)
        if edge is None:
            vectors[chain.id] = [0] * n_vnfs
            continue
        p = min(FIXED_SPLIT_AFTER, n_vnfs)
        vectors[chain.id] = [edge] * p + [0] * (n_vnfs - p)
    return evaluate(inst, Assignment.from_vectors(vectors), table)


def fixed_service(inst: Instance, table: RateTable | None = None) -> Solution:
    """Static baseline routing whole chains by service class.

    Low-latency heavy traffic (URLLC2) goes to its nearest edge cloud,
    every other service to the central cloud.
    """
    _require_central(inst)
    vectors = {}
    for chain in inst.chains:
        name = chain.service.name.lower() if chain.service else ""
        edge = _nearest_edge(inst, chain.rrh) if name == "urllc2" else None
        target = edge if edge is not None else 0
        vectors[chain.id] = [target] * len(chain.vnfs)
    return evaluate(inst, Assignment.from_vectors(vectors), table)
