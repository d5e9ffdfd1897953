"""Exact placement solvers: branch and bound plus a brute-force oracle."""
from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Collection, Optional

from . import heuristics
from .model import Instance, whole
from .rates import CAP_TOL, INFEASIBLE, Assignment, RateTable, Solution, evaluate, rate_table


class BruteForceCapError(ValueError):
    """The enumeration space exceeds BRUTE_FORCE_CAP."""


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 10_000_000
    time_limit: float = 600.0       # seconds

    def __post_init__(self):
        # Also rejects NaN, infinities and fractions; 3.0 is stored as 3.
        object.__setattr__(self, "max_nodes", whole("max_nodes", self.max_nodes))
        if self.max_nodes < 0:
            raise ValueError(f"max_nodes must be non-negative, got {self.max_nodes}")
        if not self.time_limit >= 0.0:      # also rejects NaN
            raise ValueError(f"time_limit must be non-negative, got {self.time_limit}")


@dataclass(frozen=True)
class SolveResult:
    solution: Optional[Solution]
    status: str                     # optimal | feasible-incumbent | infeasible | budget-exhausted
    nodes: int
    infeasible_reason: Optional[str] = None
    # A proven lower bound on the optimum: the objective when optimal, the
    # best root bound on a budget stop, None when infeasible.
    best_bound: Optional[float] = None


class _BudgetHit(Exception):
    pass


def solve_optimal(inst: Instance, budget: SearchBudget | None = None,
                  table: RateTable | None = None) -> SolveResult:
    """Depth-first branch and bound over per-VNF cloud choices.

    _root settles the instance with nodes == 0 or hands the search its
    bounds and incumbent.  The search returns the first placement strictly
    cheaper than the best so far, or the incumbent, b_first's own
    Solution, when none is.  Chains are branched heaviest first, in
    b_first's packing order (heuristics.packing_order), so a chain that
    fits nowhere is found near the root; VNFs keep their order within a
    chain.  The search tries the cheapest child first, by its self rate
    plus its forward penalty on the previous VNF, then by cloud index
    (ChainRow.cheapest_first).  A child goes when its committed cost
    plus the completion estimate, or its priced committed cost plus the
    priced cost still to come, cannot beat the incumbent; the first test
    is cheaper and, near the root, the tighter.  best_bound is the
    objective when optimal and _root's bound on a budget stop.  nodes
    counts every child tried, rejected ones included, and
    infeasible_reason names the most frequent rejection cause, so it
    depends on the visit order.  Results are deterministic unless the
    budget binds.  The search keeps its own stack, so instance size is not
    bounded by the recursion limit.
    """
    if budget is None:
        budget = SearchBudget()
    table = rate_table(inst, table)
    # Fail first: the search branches the heaviest chains first, so a
    # chain that fits no cloud is rejected near the root.
    order = heuristics.packing_order(inst, table)
    variables = [(table.row(chain.id), n) for chain in order
                 for n in range(1, len(chain.vnfs) + 1)]
    root = _root(inst, table, variables, budget.max_nodes)
    if isinstance(root, SolveResult):
        return root
    suffix, incumbent, best_bound, children, caps, priced = root
    if priced:
        mult, priced_rest, later, _ = priced
    best_obj = incumbent.objective if incumbent is not None else INFEASIBLE
    best_vec: Optional[list[int]] = None
    latency_cause = ["first-vnf-placement" if n == 1 else "split-latency"
                     for _, n in variables]
    loads = [0.0] * len(caps)
    vec = [0] * len(variables)  # cloud index chosen per variable
    nodes = 0
    max_nodes = budget.max_nodes
    monotonic = time.monotonic
    deadline = monotonic() + budget.time_limit
    causes = {"first-vnf-placement": 0, "split-latency": 0, "capacity": 0}

    # Iterative depth-first search.  At depth t the loop state is the
    # iterator over t's choices, the committed cost g and its priced twin
    # G, and the backward penalty and cloud index j of variable t-1.  The
    # stack keeps that state for every open ancestor, its choice k, and its
    # pre-push loads[j] and loads[k], which a pop restores after j and k.
    completed = True
    last = len(variables) - 1
    stack: list[tuple] = []
    t, g, G, G2, prev_bwd, j = 0, 0.0, 0.0, 0.0, 0.0, 0
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
                # Variable t-1 pays only what its forward penalty adds to
                # the backward one it carries; a chain head's entries have
                # no forward penalty, so it adds nothing.
                inc_prev = pen_fwd_prev - prev_bwd
                if inc_prev > 0.0:
                    load_j = loads[j] + inc_prev
                    if load_j > caps[j]:
                        causes["capacity"] += 1
                        continue
                else:
                    inc_prev = 0.0
                g2 = g + self_rate + inc_prev
                if g2 + suffix[t + 1] >= best_obj:
                    continue
                if priced:
                    G2 = G + mult[k] * self_rate + mult[j] * inc_prev
                    if G2 + priced_rest[t][j][k] + later[t] >= best_obj:
                        continue
                vec[t] = k
                if t == last:
                    if g2 < best_obj:
                        best_obj = g2
                        best_vec = vec.copy()
                    continue
                stack.append((choices, g, G, prev_bwd, j, k, loads[j], loads[k]))
                loads[k] = load_k
                if inc_prev > 0.0:
                    loads[j] = load_j
                t += 1
                choices = iter(children[t][k])
                g, G, prev_bwd, j = g2, G2, pen_bwd, k
                break
            else:
                if not stack:
                    break
                choices, g, G, prev_bwd, j, k, loads[j], loads[k] = stack.pop()
                t -= 1
    except _BudgetHit:
        completed = False

    solution = incumbent
    if best_vec is not None:
        picks = (table.cloud_ids[k] for k in best_vec)
        vectors = {c.id: tuple(itertools.islice(picks, len(c.vnfs))) for c in order}
        solution = evaluate(inst, Assignment(vectors), table)
    if solution is not None:
        if completed:
            return SolveResult(solution, "optimal", nodes, best_bound=solution.objective)
        return SolveResult(solution, "feasible-incumbent", nodes, best_bound=best_bound)
    if completed:
        reason = max(causes, key=lambda key: (causes[key], key)) \
            if any(causes.values()) else None
        return SolveResult(None, "infeasible", nodes, infeasible_reason=reason)
    return SolveResult(None, "budget-exhausted", nodes, best_bound=best_bound)


def _root(inst, table, variables, max_nodes):
    """The root phase of solve_optimal: a SolveResult that settles inst
    with nodes == 0, or the record (suffix, incumbent, best_bound,
    children, caps, priced) that the search starts from.

    A chain head that fits no cloud gives first-vnf-placement.  suffix[t]
    is the least cost of variables t onward, each VNF at its cheapest
    feasible cloud with no split penalty to come.  The first root proof
    tries each chain's lexicographically smallest zero-slack path (see
    _zero_slack), which meets the bound suffix[0]: when it fits every
    capacity it is the lexicographically smallest optimum.  It also
    settles a chainless instance, whose empty placement is feasible.
    Otherwise, when b_first places every chain, its Solution is the
    incumbent, and the second proof keeps exact the capacity of the cloud
    that the zero-slack placement overloads most (see _knapsack_bound);
    when that bound reaches the incumbent, the incumbent is optimal.
    Else priced is what _priced_bound returns, None included.  Both
    bounds read rows, each ChainRow with its chain count, and give up past
    a quarter of max_nodes, counted without a clock.  best_bound is the
    largest root bound that ran: capacity-free, knapsack or priced.
    children[t][p] lists variable t's choices when variable t-1 sits at
    cloud index p, cheapest first (see ChainRow.cheapest_first); caps[p]
    is the capacity of cloud index p plus CAP_TOL.
    """
    clouds = table.cloud_ids
    suffix = [0.0] * (len(variables) + 1)
    for t in range(len(variables) - 1, -1, -1):
        row, n = variables[t]
        least = row.colo[n - 1] if n > 1 else min(row.first, default=INFEASIBLE)
        if n == 1 and least == INFEASIBLE:
            return SolveResult(None, "infeasible", 0, infeasible_reason="first-vnf-placement")
        suffix[t] = suffix[t + 1] + least
    best_bound = suffix[0]
    root = evaluate(inst, _zero_slack(inst, table), table)
    if root.feasible:
        return SolveResult(root, "optimal", 0, best_bound=root.objective)
    caps = [inst.infra.capacity(k) + CAP_TOL for k in clouds]
    children = [row.cheapest_first[n] for row, n in variables]
    warm = heuristics.b_first(inst, table=table)
    if len(warm.accepted_ids) < len(inst.chains) or not warm.solution.feasible:
        return suffix, None, best_bound, children, caps, None
    incumbent = warm.solution
    rows = Counter(row for row, n in variables if n == 1)
    over = [root.loads[k] - cap for k, cap in zip(clouds, caps)]
    bound = _knapsack_bound(rows, caps, over.index(max(over)), max_nodes)
    if bound is not None:
        if bound >= incumbent.objective * (1 - 1e-9):
            return SolveResult(incumbent, "optimal", 0, best_bound=incumbent.objective)
        best_bound = max(best_bound, bound)
    priced = _priced_bound(rows, variables, caps, incumbent.objective, max_nodes)
    if priced is not None:
        best_bound = max(best_bound, priced[3])
    return suffix, incumbent, best_bound, children, caps, priced


# The knapsack bound counts the binding cloud's capacity in these units.
_UNITS = 64


def _knapsack_bound(rows, caps, c, max_nodes):
    """A root lower bound of solve_optimal that keeps cloud index c's
    capacity exact and drops every other cloud's, or None when the node
    budget cannot pay for it.

    Lagrangean decomposition with a multiple-choice knapsack (Guignard &
    Kim 1987; Pisinger 1995), without prices.  Per ChainRow of rows, a
    pair-state DP over row.children[1:], from one empty state, keeps for
    each state (cloud of the last VNF placed, its backward penalty) the
    Pareto list of (exact load on c, cost) over the chain's placements so
    far, with the search's penalty arithmetic.  Each chain's final load is
    floored to units of caps[c] / _UNITS, so a placement that fits spends
    at most _UNITS units: the floors never add up to more than the floor
    of the sum.  The chains, as many of each row as its count in rows, are
    then combined by min-plus convolution, and the bound is the least
    total cost within _UNITS units.  Every (load, cost) entry the DP
    makes, the head's too, and every pair the convolution tries counts as
    one node; past a quarter of max_nodes, the share _priced_bound takes,
    the bound gives up.
    """
    cap = caps[c]
    unit = cap / _UNITS
    limit = max_nodes // 4
    # With one entry in each of its K**2 pair states, the DP would make
    # K**3 entries per VNF past the head.  When even that passes the
    # limit, as on 8 clouds at a 20k-node budget, it does not start.
    if sum(len(row.colo) - 1 for row in rows) * len(caps) ** 3 > limit:
        return None
    entries = 0
    total = [(0, 0.0)]      # (units, least cost) of the chains so far
    for row, count in rows.items():
        front = {(0, 0.0): [(0.0, 0.0)]}
        for by_prev in row.children[1:]:
            grown: dict[tuple, list] = {}
            for (j, b), pairs in front.items():
                for k, rate, pen_bwd, pen_fwd_prev in by_prev[j]:
                    if rate == INFEASIBLE:
                        continue
                    inc_prev = pen_fwd_prev - b if pen_fwd_prev > b else 0.0
                    add = (rate if k == c else 0.0) + (inc_prev if j == c else 0.0)
                    cost = rate + inc_prev
                    out = grown.setdefault((k, pen_bwd), [])
                    out += [(load + add, paid + cost) for load, paid in pairs
                            if load + add <= cap]
                    entries += len(pairs)
                if entries > limit:
                    return None
            front = {state: _falling(sorted(pairs)) for state, pairs in grown.items()}
        least = [INFEASIBLE] * (_UNITS + 1)
        for pairs in front.values():
            for load, paid in pairs:
                u = int(load / unit)
                if paid < least[u]:
                    least[u] = paid
        frontier = _falling(enumerate(least))
        for _ in range(count):
            entries += len(total) * len(frontier)
            if entries > limit:
                return None
            least = [INFEASIBLE] * (_UNITS + 1)
            for a, x in total:
                for u, y in frontier:
                    if a + u > _UNITS:
                        break
                    if x + y < least[a + u]:
                        least[a + u] = x + y
            total = _falling(enumerate(least))
    return total[-1][1] if total else INFEASIBLE


def _falling(pairs):
    """The (size, cost) pairs, given by rising size, whose cost is below
    that of every pair before them: the Pareto frontier."""
    out, low = [], INFEASIBLE
    for size, cost in pairs:
        if cost < low:
            out.append((size, cost))
            low = cost
    return out


# Subgradient steps that tune the capacity prices of the priced bound.
_PRICE_STEPS = 8


def _priced_bound(rows, variables, caps, target, max_nodes):
    """The capacity-priced look-ahead of solve_optimal, or None when the
    node budget cannot pay for it.

    Relaxing capacity with prices lam_k >= 0 charges a rate at cloud k
    (1 + lam_k) and credits sum(lam_k * caps[k]); for any prices, the
    cheapest priced placement without capacity limits, less that credit,
    bounds every placement that fits from below (weak duality).  Its value
    L(lam) sums one pair-state DP per ChainRow of rows (see _priced_row),
    times its chain count.  A few Polyak subgradient steps aimed at
    target, the incumbent's objective, tune lam from 0.  Returns (mult,
    rest, later, bound) for the best step: mult[k] is 1 + lam_k;
    rest[t][j][k] is _priced_row's table of VNF n for variables[t] = (row,
    n); later[t] sums the priced minima of the chains after t's, less the
    credit and a relative float margin; bound is L(lam).  Every row must
    have a feasible head cloud, as in solve_optimal, whose _root returns
    first-vnf-placement before it computes any bound.
    """
    K = len(caps)
    # One step costs about (K**3 + 100) / 10 search nodes per VNF of each
    # row.  All steps together get at most a quarter of the node budget, so
    # a search that spends its whole budget pays at most 25% more; a
    # single step, at lam = 0, would not price capacity at all.
    work = sum(len(row.colo) for row in rows) * (K ** 3 + 100) // 10
    steps = min(_PRICE_STEPS, max_nodes // (4 * work))
    if steps < 2:
        return None
    lam = [0.0] * K
    best = None
    theta = 1.0
    for _ in range(steps):
        mult = [1.0 + x for x in lam]
        loads = [0.0] * K
        bodies, tables = {}, {}     # RowBody -> its rows' rest[n] for n >= 3
        for row, count in rows.items():
            if row.body not in bodies:
                N = len(row.colo)
                shared = [None] * N + [[[0.0] * K] * K]
                bodies[row.body] = _priced_rest(row.body.children, mult, shared, N - 1, 3)
            tables[row] = _priced_row(row, bodies[row.body], mult, loads, count)
        total = sum(count * tables[row][1] for row, count in rows.items())
        credit = sum(x * c for x, c in zip(lam, caps) if x)
        bound = total - credit
        if best is None or bound > best[0]:
            best = (bound, mult, tables, 1e-9 * (total + credit))
        else:
            theta /= 2
        # Projected subgradient: a free cloud (lam_k = 0) with spare
        # capacity keeps its zero price.
        grad = [ld - c if x or ld > c else 0.0 for x, ld, c in zip(lam, loads, caps)]
        norm = sum(s * s for s in grad)
        if not norm or bound >= target:
            break
        step = theta * (target - bound) / norm
        lam = [max(0.0, x + step * s) for x, s in zip(lam, grad)]
    bound, mult, tables, margin = best
    tail, rest, later = bound - margin, [], []
    for row, n in variables:
        table, least = tables[row]
        if n == 1:
            tail -= least
        rest.append(table[n])
        later.append(tail)
    return mult, rest, later, bound


def _priced_rest(children, mult, rest, high, low):
    """rest, with rest[n] for n from high down to low filled in from
    children and rest[n + 1] (see _priced_row)."""
    K = len(mult)
    for n in range(high, low - 1, -1):
        after, nxt = rest[n + 1], children[n + 1]
        # opts[k]: VNF n+1's choices when VNF n sits at k, as (forward
        # penalty on VNF n, priced cost of VNF n+1 onward).
        opts = [[(f, mult[l] * rate + tail[l])
                 for l, rate, _, f in nxt[k] if rate != INFEASIBLE]
                for k, tail in enumerate(after)]
        table = []
        # The head's choices do not depend on a previous cloud.
        for by_prev in children[n][:1 if n == 1 else K]:
            costs = []
            for k, rate, b, _ in by_prev:
                least = INFEASIBLE
                if rate != INFEASIBLE:
                    m = mult[k]
                    for f, c in opts[k]:
                        if f > b:
                            c += m * (f - b)
                        if c < least:
                            least = c
                costs.append(least)
            table.append(costs)
        rest[n] = table * K if n == 1 else table
    return rest


def _priced_row(row, shared, mult, loads, count):
    """The priced pair-state DP of one ChainRow.

    VNF n's choices are row.children[n], and a rate at cloud index k
    costs mult[k].  Rate n is the co-located rate plus the larger of the
    forward and backward penalty, so the state is the clouds of VNFs n-1
    and n.  Returns (rest, least): rest[n][j][k] is the least priced cost
    still to come when VNF n-1 sits at j and VNF n at k, beyond VNF n's
    self rate (what its forward penalty adds, then VNFs n+1 onward);
    least is the chain's priced minimum, the cost of the first step of a
    walk from j = 0 with no backward penalty that adds count times the
    loads of a placement attaining least to loads.  shared holds the
    rest[n] for n >= 3 that the rows of row.body share at these prices.
    """
    rest = _priced_rest(row.children, mult, shared[:], min(2, len(row.colo) - 1), 1)
    least, k, b = None, 0, 0.0
    for by_prev, after in zip(row.children[1:], rest[1:]):
        m, tail, best = mult[k], after[k], INFEASIBLE
        for i, rate, pen_bwd, f in by_prev[k]:
            c = mult[i] * rate + tail[i] + (m * (f - b) if f > b else 0.0)
            if c < best:
                best, l, rate_l, b_l, f_l = c, i, rate, pen_bwd, f
        if least is None:
            least = best
        loads[k] += count * (f_l - b if f_l > b else 0.0)
        loads[l] += count * rate_l
        k, b = l, b_l
    return rest, least


def _zero_slack(inst: Instance, table: RateTable) -> Assignment:
    """Every chain on its lexicographically smallest zero-slack path.

    Split penalties are >= 0 and no head rate is below its minimum, so a
    chain reaches its capacity-free optimum (its share of the root bound)
    exactly when its head sits at a cloud of least head rate and no split
    pays a penalty.  The path is ChainRow.zero_slack, shared by the
    chains of a row; it computes only the penalties it tests.
    """
    clouds = table.cloud_ids
    return Assignment({chain.id: tuple(clouds[p] for p in table.row(chain.id).zero_slack)
                       for chain in inst.chains})


# brute_force refuses instances with more placements than this.
BRUTE_FORCE_CAP = 10_000_000


def brute_force(inst: Instance, table: RateTable | None = None) -> SolveResult:
    """Exhaustive enumeration of every placement.  The equivalence oracle.

    Refuses instances whose joint space exceeds BRUTE_FORCE_CAP, read at
    call time.  Per-chain cost and load vectors are enumerated first; the
    cross product only has to add them up and check capacities.
    """
    table = rate_table(inst, table)
    clouds = table.cloud_ids
    space = 1
    for chain in inst.chains:
        space *= max(1, len(clouds)) ** len(chain.vnfs)
        if space > BRUTE_FORCE_CAP:
            raise BruteForceCapError(f"enumeration space exceeds cap {BRUTE_FORCE_CAP}")

    per_chain: list[list[tuple[tuple[int, ...], float, tuple[float, ...]]]] = []
    for chain in inst.chains:
        options = []
        for combo in itertools.product(clouds, repeat=len(chain.vnfs)):
            rates = table.chain_rates(chain.id, combo)
            if INFEASIBLE in rates:
                continue
            loads = [0.0] * len(clouds)
            for n, k in enumerate(combo):
                loads[table.position[k]] += rates[n]
            options.append((combo, sum(rates), tuple(loads)))
        if not options:
            return SolveResult(None, "infeasible", 0, infeasible_reason="latency")
        per_chain.append(options)

    caps = [inst.infra.capacity(k) + CAP_TOL for k in clouds]
    best = None     # (objective, pick) of the cheapest pick that fits
    # Each chain has an option, so there is a pick, () when there is no chain.
    for examined, pick in enumerate(itertools.product(*per_chain), 1):
        total = 0.0
        agg = [0.0] * len(clouds)
        for _, cost, loads in pick:
            total += cost
            for i, load in enumerate(loads):
                agg[i] += load
        if any(agg[i] > caps[i] for i in range(len(clouds))):
            continue
        if best is None or total < best[0]:
            best = total, pick
    if best is None:
        return SolveResult(None, "infeasible", examined, infeasible_reason="capacity")
    vectors = {chain.id: combo for chain, (combo, _, _) in zip(inst.chains, best[1])}
    solution = evaluate(inst, Assignment(vectors), table)
    return SolveResult(solution, "optimal", examined, best_bound=solution.objective)


@dataclass(frozen=True)
class Outcome:
    """What one registry method made of an instance.

    solution covers the accepted chains.  Only a fixed baseline keeps a
    refused deployment: one that breaks a latency bound or overloads a
    cloud keeps the deployment it tried, of every chain, with accepted 0.
    It places each chain by itself, so that deployment's first m chains
    are what it makes of the first m (see max_accepted_chains).  events, stats
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


# Entries look the solvers up when they run, so wrappers installed on the
# module attributes (tracing, test doubles) see every call.  The key order
# is the order of sweep records.
METHODS: dict[str, Callable[[Instance, RateTable, Optional[SearchBudget]], Outcome]] = {
    "optimal": lambda inst, table, budget: _searched(
        solve_optimal(inst, budget=budget, table=table), inst),
    "brute": lambda inst, table, budget: _searched(
        brute_force(inst, table=table), inst),
    "b_first": lambda inst, table, budget: _packed(
        heuristics.b_first(inst, table=table), inst),
    "fixed_split": lambda inst, table, budget: _fixed(
        heuristics.fixed_split(inst, table=table), inst),
    "fixed_service": lambda inst, table, budget: _fixed(
        heuristics.fixed_service(inst, table=table), inst),
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
    return METHODS[method_name(method)](inst, rate_table(inst, table), budget)


def max_accepted_chains(inst: Instance, method: str = "optimal",
                        table: RateTable | None = None,
                        budget: SearchBudget | None = None,
                        refused: Outcome | None = None) -> tuple[int, Outcome | None]:
    """The largest m such that the method accepts the first m chains, and
    the method's outcome on those m chains (None when m is 0).

    table is a rate table that covers inst's chains, built when not given.
    refused, when given, is the method's outcome on all of inst's chains,
    which must accept fewer than all of them; the full request is then not
    run again.  When refused keeps a deployment and is not partial, as
    only a fixed baseline's is, the longest prefix that fits is read off
    it (see _fitting_prefix) and the method runs once, on that prefix.
    Either way the result is the one without refused.
    """
    run = METHODS[method_name(method)]
    table = rate_table(inst, table)
    ids = [c.id for c in inst.chains]
    last = len(ids)
    if refused is not None:
        if refused.accepted == last:
            raise ValueError("refused outcome accepts every chain")
        if refused.solution is not None and refused.status != "partial":
            m = _fitting_prefix(inst, refused.solution)
            return (m, run(inst.subset(ids[:m]), table, budget)) if m else (0, None)
        last -= 1
    best, kept = 0, None
    for m in range(1, last + 1):
        out = run(inst.subset(ids[:m]), table, budget)
        if out.accepted == m:
            best, kept = m, out
        elif out.status != "partial":
            # Dropping chains keeps a deployment feasible, so no longer
            # prefix succeeds.  Only the greedy places part of a request,
            # and its acceptance is not monotone in the prefix length, so
            # it tries every prefix.
            break
    return best, kept


def _fitting_prefix(inst: Instance, sol: Solution) -> int:
    """The number of leading chains of inst whose part of sol, a
    deployment of every chain, is feasible.

    Adds each chain's rates to per-cloud loads in chain order, then VNF
    order, as evaluate does, so every load is the same float as evaluate's
    on that prefix; rates are never negative, so loads only grow.  Stops
    before the first chain with an INFEASIBLE rate or one that takes a
    cloud past its capacity plus CAP_TOL.
    """
    caps = {c.id: c.capacity + CAP_TOL for c in inst.infra.clouds}
    loads = dict.fromkeys(caps, 0.0)
    vectors = sol.assignment.vectors
    for m, chain in enumerate(inst.chains):
        rates = sol.rates[chain.id]
        if INFEASIBLE in rates:
            return m
        clouds = vectors[chain.id]
        for k, rate in zip(clouds, rates):
            loads[k] += rate
        if any(loads[k] > caps[k] for k in clouds):
            return m
    return len(inst.chains)
