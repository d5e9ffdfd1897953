import math

import pytest

from util import efficiency_improvement
from vnfplan import scenario
from vnfplan.model import validate_instance
from vnfplan.scenario import (
    METHOD_ORDER,
    ScenarioConfig,
    SweepRecord,
    build_instance,
    export_csv,
    gen_hex_layout,
    gen_mix,
    hex_sites,
    read_csv,
    run_sweep,
)
from vnfplan.solver import SearchBudget

import random


def test_hex_site_counts():
    assert len(hex_sites(0, 500.0)) == 1
    assert len(hex_sites(1, 500.0)) == 7
    assert len(hex_sites(2, 500.0)) == 19
    assert len(hex_sites(3, 500.0)) == 37


def test_hex_first_ring_geometry():
    sites = hex_sites(1, 500.0)
    assert sites[0] == (0.0, 0.0)
    for x, y in sites[1:]:
        assert math.hypot(x, y) == pytest.approx(500.0)
    assert len({(round(x, 6), round(y, 6)) for x, y in sites}) == 7


def test_layout_distances_and_capacities():
    infra, rrhs = gen_hex_layout(1, 500.0, 30000.0, 8960.0, 4480.0)
    assert len(rrhs) == 7
    assert rrhs == sorted(rrhs)  # zero-padded ids keep lexicographic order
    assert infra.cloud_ids() == (0, 1, 2, 3, 4, 5, 6, 7)
    assert infra.capacity(0) == 8960.0
    assert infra.capacity(3) == 4480.0
    # Central cloud sits d0 from the center site, edge 1 right on it.
    assert infra.rrh_dist("r00", 0) == pytest.approx(30000.0)
    assert infra.rrh_dist("r00", 1) == pytest.approx(0.0)
    assert infra.dist(1, 0) == pytest.approx(30000.0)
    assert infra.dist(0, 1) == infra.dist(1, 0)


def test_layout_center_only_edges():
    infra, _ = gen_hex_layout(1, 500.0, 30000.0, 8960.0, 4480.0,
                              edge_sites="center")
    assert infra.cloud_ids() == (0, 1)
    with pytest.raises(ValueError):
        gen_hex_layout(1, 500.0, 30000.0, 8960.0, 4480.0, edge_sites="ring")


def test_layout_cran_folds_capacity():
    hybrid, _ = gen_hex_layout(1, 500.0, 30000.0, 8960.0, 4480.0)
    cran, _ = gen_hex_layout(1, 500.0, 30000.0, 8960.0, 4480.0, cran=True)
    assert cran.cloud_ids() == (0,)
    assert cran.capacity(0) == sum(hybrid.capacity(k) for k in hybrid.cloud_ids())


def test_gen_mix_composition():
    rng = random.Random(0)
    rrhs = [f"r{i:02d}" for i in range(7)]
    mix = gen_mix(7, rrhs, rng)
    names = [svc.name for svc, _ in mix]
    assert names[0] == "mMTC"
    assert mix[0][1] == "r00"
    assert names.count("eMBB") == 2
    assert names.count("URLLC1") == 2
    assert names.count("URLLC2") == 2
    # Leftovers go to eMBB first, then URLLC1.
    names9 = [svc.name for svc, _ in gen_mix(9, rrhs, random.Random(0))]
    assert names9.count("eMBB") == 3
    assert names9.count("URLLC1") == 3
    assert names9.count("URLLC2") == 2
    assert gen_mix(0, rrhs, rng) == []
    assert [svc.name for svc, _ in gen_mix(1, rrhs, rng)] == ["mMTC"]


def test_gen_mix_prefixes_stay_balanced():
    rrhs = ["r00", "r01"]
    names = [svc.name for svc, _ in gen_mix(10, rrhs, random.Random(1))]
    for prefix_len in range(2, 10):
        counts = {n: names[:prefix_len].count(n)
                  for n in ("eMBB", "URLLC1", "URLLC2")}
        assert max(counts.values()) - min(counts.values()) <= 1


def test_build_instance_valid_and_seeded():
    cfg = ScenarioConfig()
    inst = build_instance(cfg, size=6, seed=4)
    assert validate_instance(inst) == []
    assert [c.id for c in inst.chains] == [f"c{i:03d}" for i in range(6)]
    again = build_instance(cfg, size=6, seed=4)
    assert [(c.service.name, c.rrh) for c in inst.chains] == \
        [(c.service.name, c.rrh) for c in again.chains]
    other = build_instance(cfg, size=6, seed=5)
    assert [(c.service.name, c.rrh) for c in other.chains] != \
        [(c.service.name, c.rrh) for c in inst.chains]


def test_build_instance_profiles():
    cfg = ScenarioConfig(mix_profile="eMBB")
    inst = build_instance(cfg, size=5)
    assert all(c.service.name == "eMBB" for c in inst.chains)
    with pytest.raises(ValueError):
        build_instance(ScenarioConfig(mix_profile="nosuch"), size=2)


def test_efficiency_improvement():
    assert efficiency_improvement(200.0, 150.0) == pytest.approx(25.0)
    assert efficiency_improvement(100.0, 100.0) == 0.0
    assert efficiency_improvement(100.0, 120.0) == pytest.approx(-20.0)
    with pytest.raises(ValueError):
        efficiency_improvement(0.0, 10.0)


def _small_cfg():
    return ScenarioConfig(edge_sites="center", mix_size=3)


def test_run_sweep_shape_and_order():
    cfg = _small_cfg()
    records = run_sweep(cfg, ["fixed-split", "b-first"], axes={"S": [2, 3]},
                        reps=2)
    assert len(records) == 8
    methods = [r.method for r in records]
    # Canonical order regardless of how methods were passed.
    assert methods == ["b_first"] * 4 + ["fixed_split"] * 4
    assert [r.size for r in records[:4]] == [2, 2, 3, 3]
    assert all(r.runtime_s == 0.0 for r in records)
    assert all(set(r.loads) == {0, 1} for r in records)


def test_run_sweep_rejects_bad_input():
    cfg = _small_cfg()
    with pytest.raises(ValueError):
        run_sweep(cfg, [])
    for name in ("nosuch", "annealing"):
        with pytest.raises(ValueError, match="unknown method"):
            run_sweep(cfg, [name])
    # The same names as `vnfplan solve`, plus the sweep-only cran-only.
    for alias in ("b-first", "bfirst", "B_FIRST"):
        records = run_sweep(cfg, [alias, "cran-only"], axes={"S": [1]}, reps=1)
        assert [r.method for r in records] == ["b_first", "cran_only"]
    with pytest.raises(ValueError):
        run_sweep(cfg, ["b_first"], axes={"temperature": [1]})
    for bad in ({"axes": {"S": [2, -2]}}, {"reps": -1}, {"jobs": 0},
                {"jobs": -3}):
        with pytest.raises(ValueError):
            run_sweep(cfg, ["b_first"], **bad)
    for method in ("b_first", "cran_only"):
        with pytest.raises(ValueError, match="edge capacities must be positive"):
            run_sweep(cfg, [method], axes={"Ce": [4480.0, -5.0]}, reps=1)
    with pytest.raises(ValueError, match="cloud 0 capacity must be positive"):
        run_sweep(ScenarioConfig(edge_sites="center", central_capacity=-1.0),
                  ["b_first"], reps=1)
    assert set(METHOD_ORDER) == {"optimal", "brute", "b_first", "fixed_split",
                                 "fixed_service", "cran_only"}


def test_run_sweep_deterministic_and_parallel():
    cfg = _small_cfg()
    axes = {"S": [2, 4]}
    once = run_sweep(cfg, ["b_first"], axes=axes, reps=2)
    twice = run_sweep(cfg, ["b_first"], axes=axes, reps=2)
    assert once == twice
    parallel = run_sweep(cfg, ["b_first"], axes=axes, reps=2, jobs=2)
    assert parallel == once


def test_run_sweep_caps_worker_processes(monkeypatch):
    """The pool never gets more workers than tasks or CPUs; no real
    worker process is started."""
    made = []

    class FakePool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return list(map(fn, tasks))

    monkeypatch.setattr(scenario, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(scenario.os, "cpu_count", lambda: 3)
    cfg = _small_cfg()
    serial = run_sweep(cfg, ["b_first"], axes={"S": [1, 2]}, reps=2)
    assert run_sweep(cfg, ["b_first"], axes={"S": [1]}, reps=1,
                     jobs=5000) == serial[:1]
    assert made == []
    assert run_sweep(cfg, ["b_first"], axes={"S": [1, 2]}, reps=2,
                     jobs=2) == serial
    assert run_sweep(cfg, ["b_first"], axes={"S": [1, 2]}, reps=2,
                     jobs=5000) == serial
    assert made == [2, 3]
    monkeypatch.setattr(scenario.os, "cpu_count", lambda: None)
    assert run_sweep(cfg, ["b_first"], axes={"S": [1, 2]}, reps=2,
                     jobs=5000) == serial
    assert made == [2, 3]


def test_run_sweep_cran_only_single_load_column():
    cfg = _small_cfg()
    records = run_sweep(cfg, ["cran-only"], axes={"S": [2]}, reps=1,
                        budget=SearchBudget(time_limit=30.0))
    assert len(records) == 1
    rec = records[0]
    assert rec.method == "cran_only"
    # Edge load column exists for CSV alignment but stays zero.
    assert set(rec.loads) == {0, 1}
    assert rec.loads[1] == 0.0
    assert rec.accepted == 2


def test_run_sweep_optimal_against_brute():
    cfg = _small_cfg()
    recs_o = run_sweep(cfg, ["optimal"], axes={"S": [1, 2]}, reps=2)
    recs_b = run_sweep(cfg, ["brute"], axes={"S": [1, 2]}, reps=2)
    for a, b in zip(recs_o, recs_b):
        assert a.size == b.size and a.accepted == b.accepted
        assert math.isclose(a.objective_gflops_s, b.objective_gflops_s,
                            rel_tol=1e-9)


def test_csv_round_trip(tmp_path):
    cfg = _small_cfg()
    records = run_sweep(cfg, ["b_first", "fixed_service"], axes={"S": [2]},
                        reps=2)
    path = tmp_path / "sweep.csv"
    export_csv(records, path)
    back = read_csv(path)
    assert back == records
    text = path.read_bytes()
    assert text.startswith(b"scenario,method,S,d0_m,objective_gflops_s,"
                           b"accepted,load_k0,load_k1,runtime_s")
    export_csv(records, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == text


def test_csv_handles_padded_loads(tmp_path):
    records = [
        SweepRecord(scenario="a", method="b_first", size=1, d0_m=30000.0,
                    objective_gflops_s=1.5, accepted=1,
                    loads={0: 1.5, 2: 0.25}, runtime_s=0.0),
        SweepRecord(scenario="b", method="b_first", size=1, d0_m=30000.0,
                    objective_gflops_s=2.5, accepted=1,
                    loads={0: 2.5}, runtime_s=0.0),
    ]
    path = tmp_path / "mixed.csv"
    export_csv(records, path)
    back = read_csv(path)
    assert back[0].loads == {0: 1.5, 2: 0.25}
    # Missing columns are padded with zero on the way out.
    assert back[1].loads == {0: 2.5, 2: 0.0}
