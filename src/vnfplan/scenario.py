"""Scenario generation and sweep harness: hexagonal layouts, service
mixes, method comparisons and CSV export."""
from __future__ import annotations

import csv
import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .config import default_model, default_services
from .model import (
    ChainRequest,
    CloudNode,
    ComputeModel,
    Infrastructure,
    Instance,
    ServiceClass,
    build_chain,
    validate_instance,
)
from .rates import RateTable
from .solver import METHODS, SearchBudget, max_accepted_chains, method_name, run_method

METHOD_ORDER = (*METHODS, "cran_only")


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of the synthetic deployment scenarios.

    Distances are meters, capacities GFLOPS/s.  central_dist lists the
    central cloud distances a distance sweep walks through; single-point
    runs use its first entry.  mix_profile "standard" draws the balanced mix
    (one mMTC plus equal parts eMBB/URLLC1/URLLC2); naming a service
    instead makes every chain that service.  edge_sites "all" co-locates
    an edge cloud with every macro site, "center" only with the middle one.
    """

    rings: int = 1
    isd: float = 500.0
    central_dist: tuple[float, ...] = (30000.0, 60000.0, 90000.0, 150000.0)
    central_capacity: float = 8960.0
    edge_capacity: float = 4480.0
    mix_size: int = 7
    seed: int = 0
    mix_profile: str = "standard"
    edge_sites: str = "all"


@dataclass(frozen=True)
class SweepRecord:
    scenario: str
    method: str
    size: int                      # chains requested
    d0_m: float
    objective_gflops_s: float
    accepted: int
    loads: Mapping[int, float]     # cloud id -> allocated rate
    runtime_s: float


def hex_sites(rings: int, isd: float) -> list[tuple[float, float]]:
    """Macro site coordinates of a hexagonal layout, center first.

    Ring m holds 6*m sites at inter-site distance isd from their
    neighbors, giving 1 + 3*rings*(rings+1) sites overall.
    """
    half_h = math.sqrt(3.0) / 2.0
    sites = [(0.0, 0.0)]
    for ring in range(1, rings + 1):
        q, r = ring, 0
        for dq, dr in ((-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0), (0, 1)):
            for _ in range(ring):
                sites.append((isd * (q + r / 2.0), isd * half_h * r))
                q += dq
                r += dr
    return sites


def _edge_positions(sites: list[tuple[float, float]],
                    edge_sites: str) -> list[tuple[float, float]]:
    if edge_sites == "center":
        return sites[:1]
    if edge_sites == "all":
        return sites
    raise ValueError(f"edge_sites must be 'all' or 'center', got {edge_sites!r}")


def gen_hex_layout(rings: int, isd: float, d0_m: float,
                   central_capacity: float, edge_capacity: float,
                   edge_sites: str = "all",
                   cran: bool = False) -> tuple[Infrastructure, list[str]]:
    """Clouds and RRHs for a hexagonal scenario.

    One RRH per macro site.  Edge clouds (ids 1..K) sit on the macro
    sites; the central cloud (id 0) sits d0_m away from the center site.
    With cran=True the edge clouds are dropped and their capacity is
    folded into the central cloud, keeping the total constant.
    """
    sites = hex_sites(rings, isd)
    rrhs = [f"r{i:02d}" for i in range(len(sites))]
    edge_positions = _edge_positions(sites, edge_sites)
    positions: dict[int, tuple[float, float]] = {0: (d0_m, 0.0)}
    if cran:
        clouds = [CloudNode(0, central_capacity + len(edge_positions) * edge_capacity)]
    else:
        clouds = [CloudNode(0, central_capacity)]
        for i, pos in enumerate(edge_positions):
            clouds.append(CloudNode(i + 1, edge_capacity))
            positions[i + 1] = pos
    ids = [c.id for c in clouds]
    cloud_distances = {
        k: {j: math.hypot(positions[k][0] - positions[j][0],
                          positions[k][1] - positions[j][1]) for j in ids}
        for k in ids
    }
    rrh_distances = {
        rrh: {k: math.hypot(site[0] - positions[k][0], site[1] - positions[k][1])
              for k in ids}
        for rrh, site in zip(rrhs, sites)
    }
    infra = Infrastructure(clouds=tuple(clouds), rrh_distances=rrh_distances,
                           cloud_distances=cloud_distances)
    return infra, rrhs


def gen_mix(size: int, rrhs: Sequence[str], rng: random.Random,
            services: Optional[dict[str, ServiceClass]] = None,
            ) -> list[tuple[ServiceClass, str]]:
    """The standard service mix, bound to radio heads.

    One mMTC chain pinned to the central site's RRH; the rest split as
    evenly as possible between eMBB, URLLC1 and URLLC2 (leftovers in that
    order) and bound to uniformly drawn RRHs.  The list interleaves the
    three services so any prefix stays balanced.
    """
    if services is None:
        services = default_services()
    if size <= 0:
        return []
    whole, rem = divmod(size - 1, 3)
    left = {
        "eMBB": whole + (1 if rem >= 1 else 0),
        "URLLC1": whole + (1 if rem >= 2 else 0),
        "URLLC2": whole,
    }
    out = [(services["mMTC"], rrhs[0])]
    while any(left.values()):
        for name in ("eMBB", "URLLC1", "URLLC2"):
            if left[name]:
                left[name] -= 1
                out.append((services[name], rng.choice(list(rrhs))))
    return out


def build_instance(cfg: ScenarioConfig, d0_m: Optional[float] = None,
                   size: Optional[int] = None,
                   edge_capacity: Optional[float] = None,
                   seed: Optional[int] = None, cran: bool = False,
                   model: Optional[ComputeModel] = None,
                   services: Optional[dict[str, ServiceClass]] = None) -> Instance:
    """Materialize one scenario point into a solvable instance."""
    if model is None:
        model = default_model()
    if services is None:
        services = default_services()
    d0 = cfg.central_dist[0] if d0_m is None else d0_m
    n_chains = cfg.mix_size if size is None else size
    ce = cfg.edge_capacity if edge_capacity is None else edge_capacity
    infra, rrhs = gen_hex_layout(cfg.rings, cfg.isd, d0, cfg.central_capacity,
                                 ce, edge_sites=cfg.edge_sites, cran=cran)
    rng = random.Random(cfg.seed if seed is None else seed)
    if cfg.mix_profile == "standard":
        mix = gen_mix(n_chains, rrhs, rng, services)
    else:
        if cfg.mix_profile not in services:
            raise ValueError(f"unknown mix profile {cfg.mix_profile!r}")
        svc = services[cfg.mix_profile]
        mix = [(svc, rng.choice(rrhs)) for _ in range(n_chains)]
    chains: list[ChainRequest] = []
    for idx, (svc, rrh) in enumerate(mix):
        chains.append(build_chain(model, svc, rrh, f"c{idx:03d}"))
    return Instance(infra=infra, chains=tuple(chains))


def _solve_point(cfg: ScenarioConfig, method: str, size: int, d0: float,
                 ce: float, rep: int, budget: SearchBudget,
                 measure_runtime: bool) -> SweepRecord:
    seed_eff = cfg.seed * 100003 + rep
    cran = method == "cran_only"
    inst = build_instance(cfg, d0_m=d0, size=size, edge_capacity=ce,
                          seed=seed_eff, cran=cran)
    problems = validate_instance(inst)
    if problems:
        raise ValueError("; ".join(problems))
    # Pad loads with the hybrid cloud ids (0 central, 1..K edge) so every
    # record of a sweep has the same columns, whichever variant produced it.
    edges = _edge_positions(hex_sites(cfg.rings, cfg.isd), cfg.edge_sites)
    solver_kind = "optimal" if cran else method

    started = time.perf_counter()
    table = RateTable(inst)
    out = run_method(solver_kind, inst, table, budget)
    runtime = time.perf_counter() - started if measure_runtime else 0.0

    accepted = out.accepted
    if accepted < len(inst.chains) and METHODS[solver_kind].all_or_nothing:
        accepted = max_accepted_chains(inst, method=solver_kind, budget=budget)
        prefix = inst.subset([c.id for c in inst.chains[:accepted]])
        out = run_method(solver_kind, prefix, table, budget)
    sol = out.solution
    loads = sol.loads if sol is not None else {}
    full_loads = {k: loads.get(k, 0.0) for k in range(1 + len(edges))}
    scenario = (f"hex{cfg.rings}-S{size}-d0{d0:g}-ce{ce:g}"
                f"-seed{cfg.seed}-rep{rep}")
    return SweepRecord(scenario=scenario, method=method, size=size, d0_m=d0,
                       objective_gflops_s=sol.objective if sol is not None else 0.0,
                       accepted=accepted, loads=full_loads, runtime_s=runtime)


def _run_task(task) -> SweepRecord:
    return _solve_point(*task)


def run_sweep(cfg: ScenarioConfig, methods: Sequence[str],
              axes: Optional[Mapping[str, Sequence[float]]] = None,
              reps: int = 10, budget: Optional[SearchBudget] = None,
              measure_runtime: bool = False, jobs: int = 1) -> list[SweepRecord]:
    """Run every (method, axis point, repetition) and collect records.

    axes maps any of "S", "d0", "Ce" to the values to sweep; missing axes
    stay at the config defaults.  Records come back in canonical order
    (method, then axis point, then repetition) regardless of jobs, and
    runtimes are reported as 0.0 unless measure_runtime is set, keeping
    the default output reproducible byte for byte.
    """
    if not methods:
        raise ValueError("no methods given")
    normalized = [method_name(m, METHOD_ORDER) for m in methods]
    ordered = [m for m in METHOD_ORDER if m in normalized]
    if reps < 0:
        raise ValueError(f"reps must be non-negative, got {reps}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if budget is None:
        budget = SearchBudget()
    axes = dict(axes or {})
    unknown = set(axes) - {"S", "d0", "Ce"}
    if unknown:
        raise ValueError(f"unknown sweep axes {sorted(unknown)}")
    sizes = [int(v) for v in axes.get("S", [cfg.mix_size])]
    if any(size < 0 for size in sizes):
        raise ValueError(f"chain counts must be non-negative, got {sizes}")
    dists = [float(v) for v in axes.get("d0", [cfg.central_dist[0]])]
    edge_caps = [float(v) for v in axes.get("Ce", [cfg.edge_capacity])]
    # cran_only folds Ce into the central cloud, where no check sees it.
    if any(ce <= 0 for ce in edge_caps):
        raise ValueError(f"edge capacities must be positive, got {edge_caps}")
    tasks = []
    for method in ordered:
        for size in sizes:
            for d0 in dists:
                for ce in edge_caps:
                    for rep in range(reps):
                        tasks.append((cfg, method, size, d0, ce, rep,
                                      budget, measure_runtime))
    # Workers start on the first submit, so never ask for more than can work.
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_task, tasks))
    return [_run_task(task) for task in tasks]


def _fmt(v: float) -> str:
    return repr(float(v))


def export_csv(records: Sequence[SweepRecord], path) -> None:
    """Write sweep records as CSV with one load column per cloud id."""
    cloud_ids = sorted({k for rec in records for k in rec.loads})
    header = (["scenario", "method", "S", "d0_m", "objective_gflops_s",
               "accepted"] + [f"load_k{k}" for k in cloud_ids] + ["runtime_s"])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in records:
            row = [rec.scenario, rec.method, str(rec.size), _fmt(rec.d0_m),
                   _fmt(rec.objective_gflops_s), str(rec.accepted)]
            row += [_fmt(rec.loads.get(k, 0.0)) for k in cloud_ids]
            row.append(_fmt(rec.runtime_s))
            writer.writerow(row)


def read_csv(path) -> list[SweepRecord]:
    """Parse a sweep CSV back into records (exact float round trip)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        load_cols = [(i, int(name[len("load_k"):]))
                     for i, name in enumerate(header) if name.startswith("load_k")]
        records = []
        for row in reader:
            records.append(SweepRecord(
                scenario=row[0],
                method=row[1],
                size=int(row[2]),
                d0_m=float(row[3]),
                objective_gflops_s=float(row[4]),
                accepted=int(row[5]),
                loads={k: float(row[i]) for i, k in load_cols},
                runtime_s=float(row[header.index("runtime_s")]),
            ))
    return records
