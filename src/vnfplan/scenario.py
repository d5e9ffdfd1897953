"""Scenario generation and sweep harness: hexagonal layouts, service
mixes, method comparisons and CSV export."""
from __future__ import annotations

import csv
import itertools
import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

from .config import default_model, default_services
from .model import (
    ChainRequest,
    CloudNode,
    Infrastructure,
    Instance,
    ServiceClass,
    build_chain,
    check_instance,
    whole,
)
from .rates import RateTable, rate_table
from .solver import METHODS, SearchBudget, max_accepted_chains, method_name, run_method

METHOD_ORDER = (*METHODS, "cran_only")


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of the synthetic deployment scenarios.

    Distances are meters, capacities GFLOPS/s.  central_dist is the
    central cloud's distance from the center site wherever no d0 is given.
    mix_profile "standard" draws the balanced mix (one mMTC plus equal
    parts eMBB/URLLC1/URLLC2); naming a service instead makes every chain
    that service.  edge_sites "all" co-locates an edge cloud with every
    macro site, "center" only with the middle one.
    """

    rings: int = 1
    isd: float = 500.0
    central_dist: float = 30000.0
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


def _whole(what: str, value) -> int:
    """value as an int; ValueError unless it is a whole number >= 0."""
    if value < 0:
        raise ValueError(f"{what} must be non-negative, got {value}")
    return whole(what, value)


def build_instance(cfg: ScenarioConfig, d0_m: Optional[float] = None,
                   size: Optional[int] = None,
                   edge_capacity: Optional[float] = None,
                   seed: Optional[int] = None, cran: bool = False) -> Instance:
    """Materialize one scenario point into a solvable instance.

    Raises ValueError on a d0 or isd that is negative or not finite, on
    an edge capacity that is not positive, and on a chain count or rings
    that is negative or not a whole number.
    """
    model, services = default_model(), default_services()
    d0 = cfg.central_dist if d0_m is None else d0_m
    n_chains = _whole("chain count", cfg.mix_size if size is None else size)
    rings = _whole("rings", cfg.rings)
    if not math.isfinite(d0):
        raise ValueError(f"central distance must be finite, got {d0}")
    if d0 < 0:
        raise ValueError(f"central distance must be non-negative, got {d0}")
    if not math.isfinite(cfg.isd):
        raise ValueError(f"isd must be finite, got {cfg.isd}")
    if cfg.isd < 0:
        raise ValueError(f"isd must be non-negative, got {cfg.isd}")
    ce = cfg.edge_capacity if edge_capacity is None else edge_capacity
    if not ce > 0:      # also rejects NaN
        raise ValueError(f"edge capacity must be positive, got {ce}")
    infra, rrhs = gen_hex_layout(rings, cfg.isd, d0, cfg.central_capacity,
                                 ce, edge_sites=cfg.edge_sites, cran=cran)
    rng = random.Random(cfg.seed if seed is None else seed)
    if cfg.mix_profile == "standard":
        mix = gen_mix(n_chains, rrhs, rng, services)
    else:
        if cfg.mix_profile not in services:
            raise ValueError(f"unknown mix profile {cfg.mix_profile!r}")
        svc = services[cfg.mix_profile]
        mix = [(svc, rng.choice(rrhs)) for _ in range(n_chains)]
    # One VNF tuple per service, so equal chain signatures compare by identity.
    vnfs = {svc: build_chain(model, svc, "", "").vnfs
            for svc in dict.fromkeys(svc for svc, _ in mix)}
    chains = tuple(ChainRequest(f"c{idx:03d}", svc, rrh, vnfs[svc])
                   for idx, (svc, rrh) in enumerate(mix))
    return Instance(infra=infra, chains=chains)


def _solve_point(cfg: ScenarioConfig, methods: Sequence[str], size: int,
                 d0: float, ce: float, rep: int, budget: SearchBudget,
                 measure_runtime: bool) -> list[SweepRecord]:
    """One record per method; each instance kind is built, checked and tabled once."""
    scenario = (f"hex{cfg.rings}-S{size}-d0{d0:g}-ce{ce:g}"
                f"-seed{cfg.seed}-rep{rep}")
    # Pad loads with the hybrid cloud ids (0 central, 1..K edge) so every
    # record of a sweep has the same columns, whichever variant produced it.
    n_clouds = 1 + len(_edge_positions(hex_sites(cfg.rings, cfg.isd), cfg.edge_sites))
    shared: dict[bool, tuple[Instance, RateTable]] = {}
    records = []
    for method in methods:
        cran = method == "cran_only"
        if cran not in shared:
            inst = build_instance(cfg, d0_m=d0, size=size, edge_capacity=ce,
                                  seed=cfg.seed * 100003 + rep, cran=cran)
            shared[cran] = inst, rate_table(inst)
        inst, table = shared[cran]
        kind = "optimal" if cran else method
        try:
            started = time.perf_counter()
            out = run_method(kind, inst, table, budget)
            runtime = time.perf_counter() - started if measure_runtime else 0.0
            accepted = out.accepted
            # The full request is refused, so only a shorter prefix can pass.
            if accepted < len(inst.chains) and out.status != "partial":
                shorter = inst.subset([c.id for c in inst.chains[:-1]])
                accepted, out = max_accepted_chains(shorter, kind, table, budget)
        except ValueError as exc:
            raise type(exc)(f"{scenario} {method}: {exc}") from exc
        # out is None when no prefix is accepted: nothing is deployed.
        sol = out.solution if out is not None else None
        loads = sol.loads if sol is not None else {}
        records.append(SweepRecord(
            scenario=scenario, method=method, size=size, d0_m=d0,
            objective_gflops_s=sol.objective if sol is not None else 0.0,
            accepted=accepted, loads={k: loads.get(k, 0.0) for k in range(n_clouds)},
            runtime_s=runtime))
    return records


def run_sweep(cfg: ScenarioConfig, methods: Sequence[str],
              axes: Optional[Mapping[str, Sequence[float]]] = None,
              reps: int = 10, budget: Optional[SearchBudget] = None,
              measure_runtime: bool = False, jobs: int = 1) -> list[SweepRecord]:
    """Run every method at every (axis point, repetition) and collect records.

    axes maps any of "S", "d0", "Ce" to the values to sweep; missing axes
    stay at the config defaults.  Each point is one task (the unit jobs > 1
    spreads over worker processes) that builds its instances once for all
    methods.  Records come back in canonical order (method, then axis
    point, then repetition) regardless of jobs, and runtimes are reported
    as 0.0 unless measure_runtime is set, keeping the default output
    reproducible byte for byte.  Chain counts, rings and reps must be
    whole numbers (3.0 counts as 3).  A point's clouds that fail
    build_instance or validate_instance raise ValueError before the first
    point runs, even with reps 0.  A method's ValueError is raised again as
    the same type, prefixed with the point's scenario label and method.
    """
    if not methods:
        raise ValueError("no methods given")
    normalized = [method_name(m, METHOD_ORDER) for m in methods]
    ordered = [m for m in METHOD_ORDER if m in normalized]
    reps = _whole("reps", reps)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if budget is None:
        budget = SearchBudget()
    axes = dict(axes or {})
    unknown = set(axes) - {"S", "d0", "Ce"}
    if unknown:
        raise ValueError(f"unknown sweep axes {sorted(unknown)}")
    sizes = [_whole("chain counts", v) for v in axes.get("S", [cfg.mix_size])]
    cfg = replace(cfg, rings=_whole("rings", cfg.rings))
    dists = [float(v) for v in axes.get("d0", [cfg.central_dist])]
    edge_caps = [float(v) for v in axes.get("Ce", [cfg.edge_capacity])]
    # Bad scenario input fails before the first point, even with reps 0.
    variants = dict.fromkeys(m == "cran_only" for m in ordered)
    for d0, ce, cran in itertools.product(dists, edge_caps, variants):
        check_instance(build_instance(cfg, d0_m=d0, size=0, edge_capacity=ce,
                                      seed=cfg.seed, cran=cran))
    tasks = [(cfg, ordered, size, d0, ce, rep, budget, measure_runtime)
             for size in sizes for d0 in dists for ce in edge_caps
             for rep in range(reps)]
    # Workers start on the first submit, so never ask for more than can work.
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_point = list(pool.map(_solve_point, *zip(*tasks)))
    else:
        per_point = [_solve_point(*task) for task in tasks]
    return [records[i] for i in range(len(ordered)) for records in per_point]


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
    """Parse a sweep CSV back into records (exact float round trip).

    ValueError when the file is empty or its header has no runtime_s."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, no CSV header")
        runtime_col = header.index("runtime_s")
        load_cols = [(i, int(name[len("load_k"):]))
                     for i, name in enumerate(header) if name.startswith("load_k")]
        return [SweepRecord(
            scenario=row[0],
            method=row[1],
            size=int(row[2]),
            d0_m=float(row[3]),
            objective_gflops_s=float(row[4]),
            accepted=int(row[5]),
            loads={k: float(row[i]) for i, k in load_cols},
            runtime_s=float(row[runtime_col]),
        ) for row in reader]
