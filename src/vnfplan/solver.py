"""Exact placement solvers: branch and bound plus a brute-force oracle."""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Collection, NamedTuple, Optional

from . import heuristics
from .model import Instance
from .rates import CAP_TOL, INFEASIBLE, Assignment, RateTable, Solution, evaluate


class BruteForceCapError(ValueError):
    """The enumeration space exceeds the configured cap."""


class BudgetExceededError(RuntimeError):
    """Raised when optimality was required but the budget ran out."""


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 10_000_000
    time_limit: float = 600.0       # seconds
    optimality_required: bool = False


@dataclass(frozen=True)
class SolveResult:
    solution: Optional[Solution]
    status: str                     # optimal | feasible-incumbent | infeasible | budget-exhausted
    nodes: int
    runtime: float
    infeasible_reason: Optional[str] = None


class _BudgetHit(Exception):
    pass


def solve_optimal(inst: Instance, budget: SearchBudget | None = None,
                  use_lower_bound: bool = True,
                  table: RateTable | None = None) -> SolveResult:
    """Depth-first branch and bound over per-VNF cloud choices.

    Clouds are tried in ascending id order, so complete assignments are
    visited lexicographically and the first optimum found is the
    lexicographically smallest one; results are deterministic whenever the
    budget is not the binding factor.  Pruning uses committed cost plus an
    admissible completion estimate (each unassigned VNF at its cheapest
    feasible cloud, ignoring future split penalties).  nodes counts every
    child tried, rejected ones included; the search keeps its own stack,
    so instance size is not bounded by the recursion limit.
    """
    if budget is None:
        budget = SearchBudget()
    if table is None:
        table = RateTable(inst)
    start = time.perf_counter()
    clouds = list(inst.infra.cloud_ids())
    variables: list[tuple[int, int]] = []
    for si, chain in enumerate(inst.chains):
        for n in range(1, len(chain.vnfs) + 1):
            variables.append((si, n))
    num_vars = len(variables)

    # A chain whose head fits nowhere makes the whole instance infeasible.
    for chain in inst.chains:
        if not clouds or all(not table.placement_feasible(chain.id, k) for k in clouds):
            return SolveResult(None, "infeasible", 0,
                               time.perf_counter() - start,
                               infeasible_reason="first-vnf-placement")

    # suffix_min[t] = cheapest possible completion cost of variables t..end.
    suffix_min = [0.0] * (num_vars + 1)
    for t in range(num_vars - 1, -1, -1):
        si, n = variables[t]
        cid = inst.chains[si].id
        if n == 1:
            best_base = min(table.first_rate(cid, k) for k in clouds
                            if table.placement_feasible(cid, k))
        else:
            best_base = table.colocated(cid, n)
        suffix_min[t] = suffix_min[t + 1] + best_base

    chain_ids = [c.id for c in inst.chains]
    # children[t][p]: the choices of variable t when variable t-1 sits at
    # cloud index p (see RateTable.children).  From here on a cloud is
    # named by its index in clouds.
    children = [table.children(chain_ids[si], n) for si, n in variables]
    latency_cause = ["first-vnf-placement" if n == 1 else "split-latency"
                     for _, n in variables]
    caps = [inst.infra.capacity(k) + CAP_TOL for k in clouds]
    loads = [0.0] * len(clouds)
    vec = [0] * num_vars          # cloud index chosen per variable
    nodes = 0
    max_nodes = budget.max_nodes
    monotonic = time.monotonic
    deadline = monotonic() + budget.time_limit
    best_obj = INFEASIBLE
    best_vec: Optional[list[int]] = None
    causes = {"first-vnf-placement": 0, "split-latency": 0, "capacity": 0}

    # Iterative depth-first search.  At depth t the loop state is the
    # iterator over t's choices, the committed cost g, and the backward
    # penalty and cloud index j of variable t-1; the stack keeps that
    # state for every open ancestor together with the ancestor's choice,
    # whose loads are taken back when its subtree is done.
    completed = True
    if num_vars == 0:
        best_obj, best_vec = 0.0, []
    else:
        last = num_vars - 1
        stack: list[tuple] = []
        t, g, prev_bwd, j = 0, 0.0, 0.0, 0
        choices = iter(children[0][0])
        # The next node that passes max_nodes or is due a clock read (each
        # 512th node); the nodes in between skip both checks.
        next_check = min(512, max_nodes + 1)
        try:
            while True:
                for k, self_rate, pen_bwd, pen_fwd_prev in choices:
                    nodes += 1
                    if nodes >= next_check:
                        if nodes > max_nodes or monotonic() > deadline:
                            raise _BudgetHit
                        next_check = min(nodes + 512, max_nodes + 1)
                    if self_rate == INFEASIBLE:
                        causes[latency_cause[t]] += 1
                        continue
                    load_k = loads[k] + self_rate
                    if load_k > caps[k]:
                        causes["capacity"] += 1
                        continue
                    # Variable t-1 pays only what its forward penalty adds
                    # to the backward one it carries; a chain head's
                    # entries have no forward penalty, so it adds nothing.
                    inc_prev = pen_fwd_prev - prev_bwd
                    if inc_prev > 0.0:
                        load_j = loads[j] + inc_prev
                        if load_j > caps[j]:
                            causes["capacity"] += 1
                            continue
                    else:
                        inc_prev = 0.0
                    g2 = g + self_rate + inc_prev
                    if use_lower_bound and g2 + suffix_min[t + 1] >= best_obj:
                        continue
                    vec[t] = k
                    loads[k] = load_k
                    if inc_prev > 0.0:
                        loads[j] = load_j
                    if t == last:
                        if g2 < best_obj:
                            best_obj = g2
                            best_vec = vec.copy()
                        loads[k] -= self_rate
                        if inc_prev > 0.0:
                            loads[j] -= inc_prev
                        continue
                    stack.append((choices, g, prev_bwd, j, k, self_rate, inc_prev))
                    t += 1
                    choices = iter(children[t][k])
                    g, prev_bwd, j = g2, pen_bwd, k
                    break
                else:
                    if not stack:
                        break
                    choices, g, prev_bwd, j, k, self_rate, inc_prev = stack.pop()
                    t -= 1
                    loads[k] -= self_rate
                    if inc_prev > 0.0:
                        loads[j] -= inc_prev
        except _BudgetHit:
            completed = False
    runtime = time.perf_counter() - start

    if not completed and budget.optimality_required:
        raise BudgetExceededError(
            f"search budget exhausted after {nodes} nodes ({runtime:.3f}s)")

    if best_vec is not None:
        vectors: dict[str, list[int]] = {cid: [] for cid in chain_ids}
        for t, (si, n) in enumerate(variables):
            vectors[chain_ids[si]].append(clouds[best_vec[t]])
        solution = evaluate(inst, Assignment.from_vectors(vectors), table)
        status = "optimal" if completed else "feasible-incumbent"
        return SolveResult(solution, status, nodes, runtime)
    if completed:
        reason = max(causes, key=lambda key: (causes[key], key)) \
            if any(causes.values()) else None
        return SolveResult(None, "infeasible", nodes, runtime,
                           infeasible_reason=reason)
    return SolveResult(None, "budget-exhausted", nodes, runtime)


def brute_force(inst: Instance, cap: int = 10_000_000,
                table: RateTable | None = None) -> SolveResult:
    """Exhaustive enumeration of every placement.  The equivalence oracle.

    Refuses instances whose joint space exceeds the cap.  Per-chain cost
    and load vectors are enumerated first; the cross product only has to
    add them up and check capacities.
    """
    if table is None:
        table = RateTable(inst)
    start = time.perf_counter()
    clouds = list(inst.infra.cloud_ids())
    space = 1
    for chain in inst.chains:
        space *= max(1, len(clouds)) ** len(chain.vnfs)
        if space > cap:
            raise BruteForceCapError(
                f"enumeration space exceeds cap {cap}")
    cloud_index = {k: i for i, k in enumerate(clouds)}

    per_chain: list[list[tuple[tuple[int, ...], float, tuple[float, ...]]]] = []
    empty_chain = False
    for chain in inst.chains:
        options = []
        n_vnfs = len(chain.vnfs)
        for combo in itertools.product(clouds, repeat=n_vnfs):
            rates = table.chain_rates(chain.id, combo)
            if INFEASIBLE in rates:
                continue
            loads = [0.0] * len(clouds)
            for n, k in enumerate(combo):
                loads[cloud_index[k]] += rates[n]
            options.append((combo, sum(rates), tuple(loads)))
        if not options:
            empty_chain = True
            break
        per_chain.append(options)

    if empty_chain:
        return SolveResult(None, "infeasible", 0, time.perf_counter() - start,
                           infeasible_reason="latency")

    caps = [inst.infra.capacity(k) + CAP_TOL for k in clouds]
    best_obj = INFEASIBLE
    best_combo = None
    examined = 0
    any_feasible = False
    for pick in itertools.product(*per_chain):
        examined += 1
        total = 0.0
        agg = [0.0] * len(clouds)
        for _, cost, loads in pick:
            total += cost
            for i, load in enumerate(loads):
                agg[i] += load
        if any(agg[i] > caps[i] for i in range(len(clouds))):
            continue
        any_feasible = True
        if total < best_obj:
            best_obj = total
            best_combo = pick
    runtime = time.perf_counter() - start
    if not any_feasible:
        return SolveResult(None, "infeasible", examined, runtime,
                           infeasible_reason="capacity")
    vectors = {chain.id: list(best_combo[i][0])
               for i, chain in enumerate(inst.chains)}
    solution = evaluate(inst, Assignment.from_vectors(vectors), table)
    return SolveResult(solution, "optimal", examined, runtime)


@dataclass(frozen=True)
class Outcome:
    """What one registry method made of an instance.

    solution covers the accepted chains; a fixed baseline that overloads a
    cloud keeps the deployment it tried, with accepted 0.  events, stats
    and reasons are the method's report lines, printed before the status,
    after the accepted count and after the solution.
    """

    status: str
    solution: Optional[Solution]
    accepted: int
    events: tuple[str, ...] = ()
    stats: tuple[str, ...] = ()
    reasons: tuple[str, ...] = ()


def _searched(res: SolveResult, inst: Instance) -> Outcome:
    reasons = (f"infeasible: {res.infeasible_reason}",) if res.status == "infeasible" else ()
    accepted = len(inst.chains) if res.solution is not None else 0
    return Outcome(res.status, res.solution, accepted, reasons=reasons)


def _packed(res: heuristics.HeuristicResult, inst: Instance) -> Outcome:
    accepted = len(res.accepted_ids)
    return Outcome("feasible" if accepted == len(inst.chains) else "partial",
                   res.solution, accepted,
                   events=tuple(event.as_line() for event in res.events),
                   stats=(f"evaluations: {res.evaluations}",))


def _fixed(sol: Solution, inst: Instance) -> Outcome:
    if sol.feasible:
        return Outcome("feasible", sol, len(inst.chains))
    return Outcome("infeasible", sol, 0,
                   reasons=tuple(f"violation: {v}" for v in sol.violations))


class Method(NamedTuple):
    run: Callable[[Instance, RateTable, Optional[SearchBudget]], Outcome]
    all_or_nothing: bool = True     # places every chain or reports failure


# Entries look the solvers up when they run, so wrappers installed on the
# module attributes (tracing, test doubles) see every call.  The key order
# is the order of sweep records.
METHODS: dict[str, Method] = {
    "optimal": Method(lambda inst, table, budget: _searched(
        solve_optimal(inst, budget=budget, table=table), inst)),
    "brute": Method(lambda inst, table, budget: _searched(
        brute_force(inst, table=table), inst)),
    "b_first": Method(lambda inst, table, budget: _packed(
        heuristics.b_first(inst, table=table), inst), all_or_nothing=False),
    "fixed_split": Method(lambda inst, table, budget: _fixed(
        heuristics.fixed_split(inst, table=table), inst)),
    "fixed_service": Method(lambda inst, table, budget: _fixed(
        heuristics.fixed_service(inst, table=table), inst)),
}


def method_name(token: str, names: Collection[str] = METHODS) -> str:
    """The canonical spelling of a method name: case-insensitive, '-' or
    '_' between words, 'bfirst' for 'b_first'.  Raises ValueError when
    the result is not among names."""
    name = token.strip().lower().replace("-", "_")
    if name == "bfirst":
        name = "b_first"
    if name not in names:
        raise ValueError(f"unknown method {token!r}")
    return name


def run_method(method: str, inst: Instance, table: RateTable | None = None,
               budget: SearchBudget | None = None) -> Outcome:
    """Run one METHODS entry (any spelling method_name accepts) on inst."""
    entry = METHODS[method_name(method)]
    return entry.run(inst, RateTable(inst) if table is None else table, budget)


def max_accepted_chains(inst: Instance, method: str = "optimal",
                        protocol: str = "prefix",
                        budget: SearchBudget | None = None) -> int:
    """How many chains of the request sequence a method can carry.

    protocol "prefix": the largest m such that the first m chains admit a
    feasible deployment.  protocol "incremental": chains are offered one
    by one and each is kept only if the kept set stays feasible (the
    deployment may be rearranged at every arrival).
    """
    entry = METHODS[method_name(method)]
    if protocol not in ("prefix", "incremental"):
        raise ValueError(f"unknown protocol {protocol!r}")
    table = RateTable(inst)

    def accepts_all(ids: list[str]) -> bool:
        return entry.run(inst.subset(ids), table, budget).accepted == len(ids)

    ids = [c.id for c in inst.chains]
    if protocol == "incremental":
        kept: list[str] = []
        for cid in ids:
            if accepts_all(kept + [cid]):
                kept.append(cid)
        return len(kept)
    best = 0
    for m in range(1, len(ids) + 1):
        if accepts_all(ids[:m]):
            best = m
        elif entry.all_or_nothing:
            # Dropping chains keeps a deployment feasible, so no longer
            # prefix succeeds.  The greedy's acceptance is not monotone in
            # the prefix length, so it tries every prefix.
            break
    return best
