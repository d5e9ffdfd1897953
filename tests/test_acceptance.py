"""Acceptance gate: eight end-to-end checks over the whole package.

Each test prints one ACCEPTANCE <name>: PASS|FAIL line on the real
stdout so the verdicts survive pytest's capture.  The corpora are fully
seeded; every run checks the same instances.
"""
from __future__ import annotations

import itertools
import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from util import (
    assignment_to_binaries,
    chain_hop_distances,
    efficiency_improvement,
    min_completion,
    rand_instance,
    two_cloud_oracle,
)

from vnfplan.config import default_model, default_services
from vnfplan.heuristics import b_first, fixed_service, fixed_split
from vnfplan.ilp import build_ilp
from vnfplan.model import (
    CloudNode,
    Infrastructure,
    Instance,
    build_chain,
)
from vnfplan.rates import (
    INFEASIBLE,
    Assignment,
    RateTable,
    evaluate,
)
from vnfplan.scenario import (
    ScenarioConfig,
    build_instance,
    gen_hex_layout,
    run_sweep,
)
from vnfplan.solver import (
    SearchBudget,
    brute_force,
    max_accepted_chains,
    solve_optimal,
)

KM = 1000.0


@pytest.fixture
def report(capsys):
    """Verdict printer that suspends capture so the line reaches the
    real stdout (and any tee) even without -s."""
    def _report(name: str, ok: bool) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {name}: {verdict}", flush=True)
    return _report


def test_exact_solver_matches_enumeration(report):
    """Branch and bound agrees with brute force on 200 random instances."""
    ok = False
    try:
        rng = random.Random(101)
        start = time.perf_counter()
        feasible_seen = 0
        infeasible_seen = 0
        for _ in range(200):
            inst = rand_instance(rng)
            exact = brute_force(inst)
            got = solve_optimal(inst)
            if exact.status == "optimal":
                feasible_seen += 1
                assert got.status == "optimal"
                assert got.solution.feasible and exact.solution.feasible
                assert math.isclose(got.solution.objective,
                                    exact.solution.objective,
                                    rel_tol=1e-6, abs_tol=1e-6)
            else:
                infeasible_seen += 1
                assert exact.status == "infeasible"
                assert got.status == "infeasible"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"corpus took {elapsed:.1f}s"
        assert feasible_seen >= 20 and infeasible_seen >= 5
        ok = True
    finally:
        report("oracle-equivalence", ok)


def test_two_cloud_rates_match_closed_forms(report):
    """Per-VNF required rates equal the independent two-cloud formulas."""
    ok = False
    try:
        rng = random.Random(202)
        checked = 0
        for _ in range(100):
            inst = rand_instance(rng, num_edges=1)
            table = RateTable(inst)
            for chain in inst.chains:
                n = len(chain.vnfs)
                for mask in range(2 ** n):
                    xs = [(mask >> i) & 1 for i in range(n)]
                    vec = [0 if x == 1 else 1 for x in xs]
                    expected = two_cloud_oracle(inst, chain, xs)
                    got = table.chain_rates(chain.id, vec)
                    if expected is None:
                        assert INFEASIBLE in got
                    else:
                        for g, e in zip(got, expected):
                            assert math.isclose(g, e, rel_tol=1e-9,
                                                abs_tol=1e-9)
                        checked += 1
        assert checked >= 100
        ok = True
    finally:
        report("two-cloud-closed-forms", ok)


def _all_assignments(inst):
    clouds = inst.infra.cloud_ids()
    per_chain = [list(itertools.product(clouds, repeat=len(c.vnfs)))
                 for c in inst.chains]
    for pick in itertools.product(*per_chain):
        yield Assignment.from_vectors(
            {c.id: list(pick[i]) for i, c in enumerate(inst.chains)})


def test_ilp_agrees_with_rate_engine(report):
    """Every enumerable assignment satisfies the ILP iff the rate engine
    accepts it, with matching minimal objectives."""
    ok = False
    try:
        rng = random.Random(303)
        for _ in range(50):
            inst = rand_instance(rng, max_chains=2, max_vnfs=3, space_cap=700)
            table = RateTable(inst)
            mdl = build_ilp(inst, table)
            for a in _all_assignments(inst):
                sol = evaluate(inst, a, table)
                comp = min_completion(mdl, assignment_to_binaries(inst, a))
                latency_ok = sol.objective != INFEASIBLE
                assert comp.binary_ok == latency_ok
                if latency_ok:
                    assert math.isclose(comp.objective, sol.objective,
                                        rel_tol=1e-6, abs_tol=1e-6)
                    assert comp.capacity_ok == sol.feasible
                else:
                    assert comp.objective == INFEASIBLE
                    assert not sol.feasible
        ok = True
    finally:
        report("ilp-consistency", ok)


def test_method_dominance(report):
    """optimal <= b_first <= both fixed baselines on shared chain sets,
    and optimal never admits fewer chains than any other method."""
    ok = False
    tol = 1e-9
    try:
        # Random corpus: optimal on the greedy's accepted set never loses
        # to the greedy, and the optimal admission count dominates.
        rng = random.Random(404)
        greedy_compared = 0
        for _ in range(40):
            inst = rand_instance(rng)
            hb = b_first(inst)
            if hb.accepted_ids:
                ex = solve_optimal(inst.subset(hb.accepted_ids))
                assert ex.status == "optimal"
                assert ex.solution.objective <= \
                    hb.solution.objective * (1 + tol) + tol
                greedy_compared += 1
            best_count = max_accepted_chains(inst, method="optimal")
            for method in ("brute", "b_first", "fixed_split", "fixed_service"):
                assert best_count >= max_accepted_chains(inst, method=method)
        assert greedy_compared >= 20

        # Scenario corpus: the full three-way ordering whenever the
        # methods accept the same chain set.
        three_way = 0
        optimal_vs_greedy = 0
        for edge_sites in ("center", "all"):
            for d0 in (30.0 * KM, 90.0 * KM):
                for size in (4, 5, 6):
                    for seed in range(3):
                        cfg = ScenarioConfig(edge_sites=edge_sites)
                        inst = build_instance(cfg, d0_m=d0, size=size,
                                              seed=seed)
                        all_ids = [c.id for c in inst.chains]
                        hb = b_first(inst)
                        if hb.accepted_ids == all_ids:
                            for fixed in (fixed_split(inst),
                                          fixed_service(inst)):
                                if fixed.feasible:
                                    assert hb.solution.objective <= \
                                        fixed.objective * (1 + tol) + tol
                                    three_way += 1
                        if edge_sites == "center" and hb.accepted_ids:
                            sub = inst.subset(hb.accepted_ids)
                            ex = solve_optimal(sub)
                            assert ex.status == "optimal"
                            assert ex.solution.objective <= \
                                hb.solution.objective * (1 + tol) + tol
                            optimal_vs_greedy += 1
        assert three_way >= 10 and optimal_vs_greedy >= 9

        # Admission ordering on the scenario corpus (single edge cloud so
        # the exact prefix scan stays fast).
        for seed in range(3):
            cfg = ScenarioConfig(edge_sites="center")
            inst = build_instance(cfg, d0_m=30.0 * KM, size=6, seed=seed)
            best_count = max_accepted_chains(inst, method="optimal")
            for method in ("b_first", "fixed_split", "fixed_service"):
                assert best_count >= max_accepted_chains(inst, method=method)
        ok = True
    finally:
        report("method-dominance", ok)


def test_hybrid_gain_grows_with_distance(report):
    """Hybrid vs central-only savings at equal total capacity grow with
    the central cloud distance."""
    ok = False
    try:
        dists = [30.0 * KM, 90.0 * KM, 150.0 * KM]
        cfg = ScenarioConfig(edge_sites="center", mix_profile="eMBB",
                             mix_size=8)
        hybrid_infra, _ = gen_hex_layout(cfg.rings, cfg.isd, dists[0],
                                         cfg.central_capacity,
                                         cfg.edge_capacity,
                                         edge_sites=cfg.edge_sites)
        cran_infra, _ = gen_hex_layout(cfg.rings, cfg.isd, dists[0],
                                       cfg.central_capacity,
                                       cfg.edge_capacity,
                                       edge_sites=cfg.edge_sites, cran=True)
        hybrid_total = sum(c.capacity for c in hybrid_infra.clouds)
        cran_total = sum(c.capacity for c in cran_infra.clouds)
        assert hybrid_total == cran_total == 13440.0

        records = run_sweep(cfg, ["optimal", "cran_only"],
                            axes={"d0": dists}, reps=3)
        assert all(rec.accepted == 8 for rec in records)
        means: dict[tuple[str, float], float] = {}
        for method in ("optimal", "cran_only"):
            for d0 in dists:
                objs = [rec.objective_gflops_s for rec in records
                        if rec.method == method and rec.d0_m == d0]
                assert len(objs) == 3
                means[(method, d0)] = sum(objs) / len(objs)
        gains = [efficiency_improvement(means[("cran_only", d0)],
                                        means[("optimal", d0)])
                 for d0 in dists]
        assert all(g >= 0.0 for g in gains)
        assert gains[0] <= gains[1] <= gains[2]
        assert gains[2] >= 2.0 * gains[0]
        ok = True
    finally:
        report("hybrid-gain-trend", ok)


def test_greedy_scales_linearly(report):
    """The greedy stays under its evaluation budget, runs in under a
    second per point, and its runtime grows linearly with the chain count
    while the exact solver times out on the same axis."""
    ok = False
    try:
        cfg = ScenarioConfig()          # seven edge clouds
        sizes = [4, 8, 12, 16, 20, 24, 28]
        insts = [build_instance(cfg, size=size, seed=0) for size in sizes]
        b_first(insts[-1])              # untimed warm-up
        # Each sample repeats the call until it lasts tens of milliseconds,
        # and the sizes are timed in interleaved rounds, so a cold start or
        # a noisy spell of the machine cannot land on one end of the fit.
        # Samples count this process's CPU time, so time the scheduler
        # gives to other processes does not count.
        reps = []
        for inst in insts:
            t0 = time.process_time()
            b_first(inst)
            reps.append(max(1, math.ceil(0.03 / (time.process_time() - t0))))
        times = [math.inf] * len(sizes)
        results = [None] * len(sizes)
        for _ in range(5):
            for i, inst in enumerate(insts):
                t0 = time.process_time()
                for _ in range(reps[i]):
                    results[i] = b_first(inst)
                times[i] = min(times[i], (time.process_time() - t0) / reps[i])
        for size, inst, best, result in zip(sizes, insts, times, results):
            n_clouds = len(inst.infra.cloud_ids())
            assert n_clouds == 8
            total_vnfs = sum(len(c) for c in inst.chains)
            assert best < 1.0
            assert result.evaluations <= n_clouds ** 2 * total_vnfs
            assert len(result.accepted_ids) == size
        slope, intercept = np.polyfit(sizes, times, 1)
        pred = np.polyval((slope, intercept), sizes)
        resid = np.asarray(times) - pred
        total = np.asarray(times) - np.mean(times)
        r_squared = 1.0 - float(np.sum(resid ** 2)) / float(np.sum(total ** 2))
        assert slope > 0.0
        assert r_squared >= 0.9, f"R^2 {r_squared:.3f}"

        # The exact solver cannot finish the largest point under a tight
        # budget; the greedy above handled it in milliseconds.
        inst = build_instance(cfg, size=sizes[-1], seed=0)
        res = solve_optimal(inst, budget=SearchBudget(max_nodes=400_000,
                                                      time_limit=0.5))
        assert res.status in ("feasible-incumbent", "budget-exhausted")
        ok = True
    finally:
        report("greedy-scaling", ok)


def _single_chain_instance(service_name: str, d_central: float,
                           d_edges: list[float]) -> Instance:
    model = default_model()
    services = default_services()
    clouds = [CloudNode(0, 8960.0)]
    clouds += [CloudNode(i + 1, 4480.0) for i in range(len(d_edges))]
    ids = [c.id for c in clouds]
    rrh_distances = {"r0": {0: d_central,
                            **{i + 1: d for i, d in enumerate(d_edges)}}}
    cloud_distances = {a: {b: 50.0 * KM for b in ids if b != a} for a in ids}
    infra = Infrastructure(clouds=tuple(clouds),
                           rrh_distances=rrh_distances,
                           cloud_distances=cloud_distances)
    chain = build_chain(model, services[service_name], "r0", "u0")
    return Instance(infra=infra, chains=(chain,))


def test_latency_boundary(report):
    """Chains with a 0.2 ms bound are rejected by every method once all
    clouds sit 40 km or farther away, and no produced deployment ever
    splits such a chain across a link of 40 km or more."""
    ok = False
    limit_m = 200.0 * 0.2 * 1000.0      # fiber speed times bound, 40 km
    try:
        assert limit_m == 40.0 * KM
        far = _single_chain_instance("URLLC1", 45.0 * KM,
                                     [40.0 * KM, 41.0 * KM])
        res = solve_optimal(far)
        assert res.status == "infeasible"
        assert res.infeasible_reason == "first-vnf-placement"
        assert brute_force(far).status == "infeasible"
        assert b_first(far).accepted_ids == []
        assert fixed_split(far).feasible is False
        assert fixed_service(far).feasible is False

        near = _single_chain_instance("URLLC1", 45.0 * KM,
                                      [39.0 * KM, 41.0 * KM])
        res = solve_optimal(near)
        assert res.status == "optimal"

        # Hop scan over solutions produced at a 45 km central distance.
        def scan(inst: Instance, assignment, chain_ids) -> int:
            chains = {c.id: c for c in inst.chains}
            seen = 0
            for cid in chain_ids:
                chain = chains[cid]
                if chain.service is None or chain.service.name != "URLLC1":
                    continue
                head_dist = inst.infra.rrh_dist(
                    chain.rrh, assignment.cloud_of(cid, 1))
                hops = [head_dist] + chain_hop_distances(inst, assignment,
                                                         chain)
                assert all(h < limit_m for h in hops)
                seen += 1
            return seen

        scanned = 0
        cfg = ScenarioConfig()          # edge clouds on every site
        for size in (4, 6, 8, 10):
            for seed in range(3):
                inst = build_instance(cfg, d0_m=45.0 * KM, size=size,
                                      seed=seed)
                hb = b_first(inst)
                scanned += scan(inst, hb.solution.assignment,
                                hb.accepted_ids)
        center = ScenarioConfig(edge_sites="center")
        for seed in range(3):
            inst = build_instance(center, d0_m=45.0 * KM, size=6, seed=seed)
            res = solve_optimal(inst)
            if res.solution is not None and res.solution.feasible:
                scanned += scan(inst, res.solution.assignment,
                                [c.id for c in inst.chains])
        inst = build_instance(cfg, d0_m=45.0 * KM, size=7, seed=0)
        res = solve_optimal(inst, budget=SearchBudget(max_nodes=200_000,
                                                      time_limit=0.5))
        if res.solution is not None:
            scanned += scan(inst, res.solution.assignment,
                            [c.id for c in inst.chains])
        assert scanned >= 10
        ok = True
    finally:
        report("latency-boundary", ok)


def _run_cli(args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "vnfplan.cli", *args],
                          capture_output=True, text=True, cwd=str(cwd))


def test_repeated_commands_are_byte_identical(tmp_path, report):
    """Fresh processes with the same seed write identical files."""
    ok = False
    try:
        gen_flags = ["--mix", "5", "--seed", "3", "--central-dist", "45000"]
        for name in ("g1.yaml", "g2.yaml"):
            proc = _run_cli(["gen", "--out", name, *gen_flags], tmp_path)
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "g1.yaml").read_bytes() == \
            (tmp_path / "g2.yaml").read_bytes()

        for name in ("l1.lp", "l2.lp"):
            proc = _run_cli(["solve", "g1.yaml", "--method", "optimal",
                             "--emit-lp", name], tmp_path)
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "l1.lp").read_bytes() == \
            (tmp_path / "l2.lp").read_bytes()

        sweep_flags = ["--methods", "b-first,fixed-split,cran-only",
                       "--axis-s", "2,3", "--reps", "2", "--seed", "5",
                       "--edge-sites", "center"]
        for name in ("s1.csv", "s2.csv"):
            proc = _run_cli(["sweep", "--out", name, *sweep_flags], tmp_path)
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "s1.csv").read_bytes() == \
            (tmp_path / "s2.csv").read_bytes()
        ok = True
    finally:
        report("determinism", ok)
