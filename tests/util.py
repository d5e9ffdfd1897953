"""Shared test helpers: a quantized random instance generator, an
independent two-cloud oracle for the per-VNF rate formulas, and small
oracles the library itself does not need (link feasibility, hop
distances, percent savings, the ILP's rate completion of a fixed
binary vector, HiGHS on an IlpModel, evaluate's per-chain loop without
its memo, and the zero-slack walk over RateTable.split).

Quantization policy: latency bounds are multiples of 0.05 ms and
distances multiples of 1 km, so every latency margin is a multiple of
0.005 ms.  A computed margin inside the 1e-6 ms band is therefore an
exact zero up to float rounding, and a margin meant to be positive is
at least 0.005 ms; the band separates the two cases without ambiguity.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from vnfplan.ilp import IlpModel, x_name
from vnfplan.model import ChainRequest, CloudNode, Infrastructure, Instance, VnfSpec
from vnfplan.rates import (
    CAP_TOL,
    EPS_MS,
    INFEASIBLE,
    Assignment,
    RateTable,
    Solution,
    comm_delay_ms,
)
from vnfplan.scenario import ScenarioConfig, build_instance

KM = 1000.0

# The optima of the sweep's center-layout points at S=8, d0 = 30 km and
# Ce = 2240, reps 0-2 (see sweep_hit_instance), proven by HiGHS.
SWEEP_HIT_OPTIMA = (6949.742247657658, 6949.622311509312, 6958.6678104138355)


def sweep_hit_instance(rep: int) -> Instance:
    """The instance that the benchmark's sweep (scenario seed 11) solves at
    center, S=8, d0 = 30 km, Ce = 2240 and repetition rep."""
    return build_instance(ScenarioConfig(edge_sites="center", seed=11), d0_m=30_000.0,
                          size=8, edge_capacity=2240.0, seed=11 * 100003 + rep)


def eight_cloud_instance(size: int, edge_capacity: float, seed: int = 0) -> Instance:
    """The 8-cloud capacity-bound scenario (every site an edge cloud, central
    cloud 45 km out) with size chains, drawn from the scenario seed."""
    return build_instance(ScenarioConfig(edge_sites="all", seed=seed), d0_m=45_000.0,
                          size=size, edge_capacity=edge_capacity)


def rand_instance(rng: random.Random, max_chains: int = 3, max_vnfs: int = 4,
                  num_edges: Optional[int] = None,
                  space_cap: int = 20000) -> Instance:
    """A random well-formed instance small enough to brute force.

    num_edges picks the edge cloud count (default: 1 or 2 at random).
    Chain lengths are shrunk until the joint assignment space fits under
    space_cap.  Capacities are drawn as a fraction of the total co-located
    demand so the corpus mixes feasible and infeasible instances.
    """
    k_edges = num_edges if num_edges is not None else rng.choice([1, 2])
    n_clouds = k_edges + 1
    n_chains = rng.randint(1, max_chains)
    sizes = [rng.randint(1, max_vnfs) for _ in range(n_chains)]
    while n_clouds ** sum(sizes) > space_cap:
        i = max(range(n_chains), key=lambda idx: sizes[idx])
        if sizes[i] == 1:
            break
        sizes[i] -= 1

    cloud_ids = list(range(n_clouds))
    rrhs = [f"r{i}" for i in range(n_chains)]
    rrh_distances = {}
    for rrh in rrhs:
        row = {0: rng.randint(5, 50) * KM}
        for k in range(1, n_clouds):
            row[k] = rng.randint(0, 30) * KM
        rrh_distances[rrh] = row
    cloud_distances: dict[int, dict[int, float]] = {k: {k: 0.0} for k in cloud_ids}
    for k in cloud_ids:
        for j in cloud_ids:
            if j <= k:
                continue
            d = rng.randint(3, 50) * KM if 0 in (k, j) else rng.randint(1, 15) * KM
            cloud_distances[k][j] = d
            cloud_distances[j][k] = d

    chains = []
    total_demand = 0.0
    for i, size in enumerate(sizes):
        vnfs = []
        for _ in range(size):
            gflops = rng.randint(1, 16) * 0.5
            fwd = rng.randint(2, 60) * 0.05
            bwd = rng.randint(2, 60) * 0.05
            vnfs.append(VnfSpec(gflops=gflops, fwd_ms=fwd, bwd_ms=bwd))
            total_demand += 1000.0 * gflops / min(fwd, bwd)
        chains.append(ChainRequest(id=f"c{i}", service=None, rrh=rrhs[i],
                                   vnfs=tuple(vnfs)))

    clouds = []
    for k in cloud_ids:
        frac = rng.choice([0.2, 0.35, 0.5, 0.75, 1.0, 1.5])
        clouds.append(CloudNode(id=k, capacity=max(1.0, frac * total_demand)))

    infra = Infrastructure(clouds=tuple(clouds), rrh_distances=rrh_distances,
                           cloud_distances=cloud_distances)
    return Instance(infra=infra, chains=tuple(chains))


def two_cloud_oracle(inst: Instance, chain: ChainRequest,
                     xs: Sequence[int]) -> Optional[list[float]]:
    """Per-VNF rates for a central-plus-one-edge deployment, or None.

    xs[i] is 1 when VNF i+1 runs at the central cloud (id 0) and 0 when
    it runs at the edge cloud (id 1).  Written straight from the
    closed-form rate analysis, independently of the library internals:
    the co-located requirement is demand over the tighter bound, a split
    raises it to demand over the bound left after fiber delay, and the
    chain head always pays the radio-head link on its backward bound.
    Returns None when any implied link has no latency margin, where a
    margin inside the quantization dust band counts as zero (see the
    module docstring).
    """
    zero_band_ms = 1e-6
    infra = inst.infra
    v = infra.fiber_speed
    d_c = infra.rrh_dist(chain.rrh, 0)
    d_e = infra.rrh_dist(chain.rrh, 1)
    d_ec = infra.dist(0, 1)

    def delay(d: float) -> float:
        return d / v / 1000.0

    lam = [vnf.gflops for vnf in chain.vnfs]
    f = [vnf.fwd_ms for vnf in chain.vnfs]
    b = [vnf.bwd_ms for vnf in chain.vnfs]
    n_vnfs = len(lam)
    rates = []
    for i in range(n_vnfs):
        if i == 0:
            d_head = d_c if xs[0] == 1 else d_e
            margin = b[0] - delay(d_head)
            if margin <= zero_band_ms:
                return None
            c_head = max(1000.0 * lam[0] / f[0], 1000.0 * lam[0] / margin)
            if n_vnfs > 1 and xs[1] != xs[0]:
                fwd_margin = f[0] - delay(d_ec)
                if fwd_margin <= zero_band_ms:
                    return None
                c_head = max(1000.0 * lam[0] / fwd_margin, c_head)
            rates.append(c_head)
            continue
        base = 1000.0 * lam[i] / min(f[i], b[i])
        need = base
        if xs[i] != xs[i - 1]:
            margin = b[i] - delay(d_ec)
            if margin <= zero_band_ms:
                return None
            need = max(need, 1000.0 * lam[i] / margin)
        if i < n_vnfs - 1 and xs[i] != xs[i + 1]:
            margin = f[i] - delay(d_ec)
            if margin <= zero_band_ms:
                return None
            need = max(need, 1000.0 * lam[i] / margin)
        rates.append(need)
    return rates


def split_feasible(dist_m: float, fiber_speed: float, bound_ms: float) -> bool:
    """Whether a bound survives the propagation delay of a link at all."""
    return bound_ms - comm_delay_ms(dist_m, fiber_speed) > EPS_MS


def chain_hop_distances(inst: Instance, a: Assignment,
                        chain: ChainRequest) -> list[float]:
    """Fiber lengths of the links an assignment makes the chain traverse."""
    hops = []
    for n in range(1, len(chain.vnfs)):
        k = a.cloud_of(chain.id, n)
        j = a.cloud_of(chain.id, n + 1)
        if k != j:
            hops.append(inst.infra.dist(k, j))
    return hops


def efficiency_improvement(baseline: float, variant: float) -> float:
    """Percent rate saved by the variant relative to the baseline."""
    if baseline <= 0:
        raise ValueError(f"baseline must be positive, got {baseline}")
    return 100.0 * (baseline - variant) / baseline


def assignment_to_binaries(inst: Instance, a: Assignment) -> dict[str, int]:
    """The 0/1 values an assignment induces on the model's x variables."""
    values: dict[str, int] = {}
    for si, chain in enumerate(inst.chains):
        for n in range(1, len(chain.vnfs) + 1):
            chosen = a.cloud_of(chain.id, n)
            for k in inst.infra.cloud_ids():
                values[x_name(si, n, k)] = 1 if k == chosen else 0
    return values


@dataclass(frozen=True)
class CompletionResult:
    binary_ok: bool       # one-hot rows, cuts and fixings all hold
    capacity_ok: bool
    objective: float      # sum of minimal rates; inf when binary_ok is False
    rates: Mapping[str, float]


def min_completion(mdl: IlpModel, x_values: Mapping[str, int]) -> CompletionResult:
    """Minimal feasible rate completion of a fixed binary vector.

    For fixed binaries every rate variable's minimum is the largest lower
    bound among its rows, so no LP solve is needed to evaluate a leaf.
    """
    binset = set(mdl.binaries)
    binary_ok = all(x_values.get(var, 0) == 0 for var in mdl.fixed_zero)
    rmin = {var: 0.0 for var in mdl.continuous}
    cap_rows = []
    for con in mdl.constraints:
        rate_vars = [(var, coef) for var, coef in con.terms if var not in binset]
        if not rate_vars:
            value = sum(coef * x_values[var] for var, coef in con.terms)
            if con.sense == "=" and value != con.rhs:
                binary_ok = False
            elif con.sense == "<=" and value > con.rhs:
                binary_ok = False
            elif con.sense == ">=" and value < con.rhs:
                binary_ok = False
            continue
        if con.sense == "<=":
            cap_rows.append(con)
            continue
        # Rate lower bound row: single rate variable with coefficient 1.
        (rvar, rcoef), = rate_vars
        bound = con.rhs - sum(coef * x_values[var] for var, coef in con.terms
                              if var in binset)
        rmin[rvar] = max(rmin[rvar], bound / rcoef)
    if not binary_ok:
        return CompletionResult(False, False, INFEASIBLE, {})
    capacity_ok = True
    for con in cap_rows:
        load = sum(coef * rmin[var] for var, coef in con.terms if var not in binset)
        if load > con.rhs + CAP_TOL:
            capacity_ok = False
    objective = sum(coef * rmin[var] for var, coef in mdl.objective)
    return CompletionResult(binary_ok, capacity_ok, objective, rmin)



def _solve_via_scipy(mdl: IlpModel, relax: bool = False, **options):
    """HiGHS on the model, as a MILP or, with relax, as its LP relaxation.
    numpy and scipy are imported on call, so this module loads without them."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint as SciCon, milp
    from scipy.sparse import csr_matrix
    variables = list(mdl.continuous) + list(mdl.binaries)
    idx = {v: i for i, v in enumerate(variables)}
    c = np.zeros(len(variables))
    for var, coef in mdl.objective:
        c[idx[var]] += coef
    rows, cols, vals, lb, ub = [], [], [], [], []
    for i, con in enumerate(mdl.constraints):
        for var, coef in con.terms:
            rows.append(i)
            cols.append(idx[var])
            vals.append(coef)
        lb.append(-np.inf if con.sense == "<=" else con.rhs)
        ub.append(np.inf if con.sense == ">=" else con.rhs)
    matrix = csr_matrix((vals, (rows, cols)), shape=(len(mdl.constraints), len(variables)))
    integrality = np.array([0] * len(mdl.continuous) + [0 if relax else 1] * len(mdl.binaries))
    lo = np.zeros(len(variables))
    hi = np.full(len(variables), np.inf)
    for var in mdl.binaries:
        hi[idx[var]] = 1.0
    for var in mdl.fixed_zero:
        hi[idx[var]] = 0.0
    return milp(c=c, constraints=SciCon(matrix, np.array(lb), np.array(ub)),
                integrality=integrality, bounds=Bounds(lo, hi), options=options)


def reference_evaluate(inst: Instance, a: Assignment, table: RateTable) -> Solution:
    """vnfplan.rates.evaluate as one chain_rates call per chain, with the
    violation walk on every VNF: the loop that evaluate's per-call memo
    must reproduce bit for bit."""
    violations: list[str] = []
    rates: dict[str, tuple[float, ...]] = {}
    loads: dict[int, float] = {k: 0.0 for k in inst.infra.cloud_ids()}
    objective = 0.0
    for chain in inst.chains:
        cid = chain.id
        clouds = a.vectors.get(cid)
        if clouds is None or len(clouds) != len(chain.vnfs):
            raise ValueError(f"chain {cid}: cloud vector {clouds!r} for {len(chain.vnfs)} VNFs")
        try:
            per_vnf = rates[cid] = tuple(table.chain_rates(cid, clouds))
        except KeyError as exc:
            raise ValueError(f"chain {cid}: no cloud {exc.args[0]!r} in the instance") from None
        for n, (k, rate) in enumerate(zip(clouds, per_vnf), start=1):
            objective += rate
            loads[k] += rate
            if rate != INFEASIBLE:
                continue
            if n == 1 and table.row(cid).first[table.position[k]] == INFEASIBLE:
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
    return Solution(assignment=a, rates=rates, objective=objective, loads=loads,
                    feasible=not violations, violations=tuple(violations))


def solution_bits(sol: Solution) -> tuple:
    """A Solution's numbers as float.hex, with its verdict and violations in
    order: equal tuples mean bit-identical evaluations."""
    return (sol.objective.hex(),
            tuple((k, load.hex()) for k, load in sol.loads.items()),
            tuple((cid, tuple(r.hex() for r in per_vnf)) for cid, per_vnf in sol.rates.items()),
            sol.feasible, sol.violations)


def reference_zero_slack(inst: Instance, table: RateTable) -> Assignment:
    """Every chain's lexicographically smallest zero-slack path, walked over
    RateTable.split: the head at the first cloud of least head rate, then
    each next VNF at the first cloud, ascending, whose split pays no
    penalty in either direction (staying put pays none)."""
    clouds = table.cloud_ids
    vectors = {}
    for chain in inst.chains:
        cid = chain.id
        first = table.row(cid).first
        k = clouds[first.index(min(first))]
        path = [k]
        for n in range(1, len(chain.vnfs)):
            k = next(j for j in clouds if table.split(cid, n, k, j) == (0.0, 0.0))
            path.append(k)
        vectors[cid] = tuple(path)
    return Assignment(vectors)
