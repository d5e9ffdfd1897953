import math

import pytest

from util import efficiency_improvement
from vnfplan import model, scenario, solver
from vnfplan.config import default_model
from vnfplan.model import build_chain, validate_instance
from vnfplan.rates import RateTable
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
from vnfplan.solver import BruteForceCapError, SearchBudget

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


def test_build_instance_rejects_negative_chain_count_and_rings():
    for cfg, size, message in ((ScenarioConfig(mix_size=-3), None, "got -3"),
                               (ScenarioConfig(), -1, "got -1"),
                               (ScenarioConfig(rings=-2), None, "rings"),
                               (ScenarioConfig(mix_size=2.5), None,
                                "chain count must be a whole number, got 2.5"),
                               (ScenarioConfig(), 2.7, "chain count must be a whole number"),
                               (ScenarioConfig(), math.nan, "chain count must be a whole number"),
                               (ScenarioConfig(rings=1.5), None,
                                "rings must be a whole number, got 1.5"),
                               (ScenarioConfig(central_dist=math.inf), None,
                                "central distance must be finite, got inf"),
                               (ScenarioConfig(central_dist=math.nan), None,
                                "central distance must be finite, got nan"),
                               (ScenarioConfig(isd=-math.inf), None,
                                "isd must be finite, got -inf"),
                               (ScenarioConfig(isd=math.nan), None,
                                "isd must be finite, got nan")):
        with pytest.raises(ValueError, match=message):
            build_instance(cfg, size=size)
    assert build_instance(ScenarioConfig(mix_size=0)).chains == ()
    # Whole floats count as their integers.
    assert build_instance(ScenarioConfig(mix_size=3.0, rings=1.0)) == \
        build_instance(ScenarioConfig(mix_size=3, rings=1))


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
    for bad in ({"axes": {"S": [2, -2]}}, {"axes": {"S": [2.7]}}, {"reps": -1},
                {"reps": 2.5}, {"jobs": 0}, {"jobs": -3}):
        with pytest.raises(ValueError):
            run_sweep(cfg, ["b_first"], **bad)
    with pytest.raises(ValueError, match="rings must be a whole number, got 1.5"):
        run_sweep(ScenarioConfig(edge_sites="center", rings=1.5), ["b_first"], reps=1)
    whole = run_sweep(ScenarioConfig(edge_sites="center", rings=1.0), ["b_first"],
                      axes={"S": [3.0]}, reps=1)
    assert whole == run_sweep(cfg, ["b_first"], axes={"S": [3]}, reps=1)
    assert type(whole[0].size) is int
    for method in ("b_first", "cran_only"):
        with pytest.raises(ValueError, match="edge capacity must be positive, got -5.0"):
            run_sweep(cfg, [method], axes={"Ce": [4480.0, -5.0]}, reps=1)
    with pytest.raises(ValueError, match="cloud 0 capacity must be positive"):
        run_sweep(ScenarioConfig(edge_sites="center", central_capacity=-1.0),
                  ["b_first"], reps=1)
    assert set(METHOD_ORDER) == {"optimal", "brute", "b_first", "fixed_split",
                                 "fixed_service", "cran_only"}


ALL_METHODS = ["optimal", "b-first", "fixed-split", "fixed-service", "cran-only"]


def test_run_sweep_deterministic_and_parallel():
    """Every method, a point whose full request is rejected (so prefixes
    are re-solved), and the same records from one method at a time, twice,
    and from two worker processes."""
    cfg = ScenarioConfig(edge_sites="center", seed=11)
    kwargs = dict(axes={"S": [2, 4], "d0": [90_000.0], "Ce": [2240.0]}, reps=2,
                  budget=SearchBudget(max_nodes=20_000, time_limit=math.inf))
    once = run_sweep(cfg, ALL_METHODS, **kwargs)
    assert [r.method for r in once] == [m for m in METHOD_ORDER if m != "brute"
                                        for _ in range(4)]
    assert any(r.accepted < r.size for r in once if r.method == "optimal")
    assert once == [rec for method in ALL_METHODS
                    for rec in run_sweep(cfg, [method], **kwargs)]
    assert run_sweep(cfg, ALL_METHODS, **kwargs) == once
    assert run_sweep(cfg, ALL_METHODS, jobs=2, **kwargs) == once


def test_sweep_with_no_accepted_chain():
    """No method places even one URLLC2 chain: every record accepts 0,
    with objective 0.0 and a 0.0 load on every hybrid cloud id."""
    budget = SearchBudget(max_nodes=20_000, time_limit=math.inf)
    # brute only at S=1: three URLLC2 chains pass its enumeration cap.
    for sites, methods, sizes in (("center", ALL_METHODS, [1, 3]),
                                  ("all", ALL_METHODS, [1, 3]),
                                  ("center", ["brute"], [1])):
        cfg = ScenarioConfig(edge_sites=sites, mix_profile="URLLC2",
                             central_capacity=50.0)
        records = run_sweep(cfg, methods, axes={"S": sizes, "Ce": [20.0]},
                            reps=1, budget=budget)
        assert len(records) == len(methods) * len(sizes)
        n_clouds = 2 if sites == "center" else 8
        for rec in records:
            assert (rec.accepted, rec.objective_gflops_s) == (0, 0.0), rec
            assert rec.loads == dict.fromkeys(range(n_clouds), 0.0), rec


def test_sweep_point_calls_prefix_search_through_module_attribute(monkeypatch):
    """A rejected point runs its prefix search as scenario.max_accepted_chains,
    so a wrapper put there (as a tracer does) sees every call.  The search
    gets the request without its last chain, whose full outcome is already
    known.  b_first records its own partial outcome and needs none."""
    calls = []
    plain = scenario.max_accepted_chains

    def counted(inst, method, *args, **kwargs):
        calls.append((method, len(inst.chains)))
        return plain(inst, method, *args, **kwargs)

    monkeypatch.setattr(scenario, "max_accepted_chains", counted)
    cfg = ScenarioConfig(edge_sites="center", seed=11)
    budget = SearchBudget(max_nodes=20_000, time_limit=math.inf)
    methods = [m for m in METHOD_ORDER if m != "brute"]
    records = scenario._solve_point(cfg, methods, 8, 90_000.0, 2240.0, 0, budget, False)
    assert [(r.method, r.accepted) for r in records] == [
        ("optimal", 3), ("b_first", 6), ("fixed_split", 2), ("fixed_service", 2),
        ("cran_only", 2)]
    assert calls == [("optimal", 7), ("fixed_split", 7), ("fixed_service", 7),
                     ("optimal", 7)]


def test_sweep_point_builds_each_instance_once(monkeypatch):
    """Both kinds of instance (hybrid and central-only) are built,
    validated and rate-tabled once per point, whatever the methods.
    Before the first point, each kind is also built and validated once
    without chains per (d0, Ce) pair, and gets no rate table."""
    calls = {"build_instance": 0, "validate_instance": 0, "RateTable": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # validate_instance runs through model.check_instance.
    for module, name in ((scenario, "build_instance"), (model, "validate_instance")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    # Counts tables built anywhere, not only in scenario.
    monkeypatch.setattr(RateTable, "__init__", counted("RateTable", RateTable.__init__))
    cfg = ScenarioConfig(edge_sites="center", seed=11)
    records = run_sweep(cfg, ALL_METHODS, axes={"S": [4, 8], "d0": [90_000.0],
                                                "Ce": [2240.0]}, reps=1,
                        budget=SearchBudget(max_nodes=20_000, time_limit=math.inf))
    assert len(records) == 10
    assert any(r.accepted < r.size for r in records)
    assert calls == {"build_instance": 2 + 4, "validate_instance": 2 + 4, "RateTable": 4}


def test_run_sweep_stops_at_the_first_failing_point(monkeypatch):
    """A method's error names its point and method, keeps its type, and no
    method or point after it runs."""
    built, ran = [], []
    plain_build, plain_run = scenario.build_instance, scenario.run_method

    def build(cfg, **kwargs):
        built.append((kwargs["size"], kwargs["edge_capacity"], kwargs["seed"]))
        return plain_build(cfg, **kwargs)

    def run(kind, inst, *args):
        ran.append((kind, len(inst.chains)))
        return plain_run(kind, inst, *args)

    monkeypatch.setattr(scenario, "build_instance", build)
    monkeypatch.setattr(scenario, "run_method", run)
    with pytest.raises(BruteForceCapError) as exc:
        run_sweep(_small_cfg(), ["b-first", "brute", "optimal"],
                  axes={"S": [2, 3], "Ce": [300.0, 4480.0]}, reps=2)
    assert str(exc.value) == ("hex1-S3-d030000-ce300-seed0-rep0 brute: "
                              "enumeration space exceeds cap 10000000")
    # The chainless checks of both edge capacities come first.
    assert built == [(0, 300.0, 0), (0, 4480.0, 0),
                     (2, 300.0, 0), (2, 300.0, 1), (2, 4480.0, 0), (2, 4480.0, 1),
                     (3, 300.0, 0)]
    assert ran[-2:] == [("optimal", 3), ("brute", 3)]


def test_build_instance_shares_each_service_vnfs():
    model = default_model()
    for cfg in (ScenarioConfig(mix_size=13, seed=4),
                ScenarioConfig(mix_size=5, mix_profile="URLLC1", edge_sites="center")):
        inst = build_instance(cfg)
        first = {}
        for chain in inst.chains:
            assert chain == build_chain(model, chain.service, chain.rrh, chain.id)
            assert first.setdefault(chain.service.name, chain.vnfs) is chain.vnfs
        assert len(first) == (4 if cfg.mix_profile == "standard" else 1)


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

        def map(self, fn, *iterables):
            return list(map(fn, *iterables))

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


def test_run_sweep_rejects_fractional_jobs_before_any_worker(monkeypatch):
    """jobs must be a whole number, like reps: 2.5 and NaN fail before a
    pool starts or a point runs."""
    def no_pool(max_workers):
        raise AssertionError(f"a pool of {max_workers} workers was started")

    def no_point(*task):
        raise AssertionError("a point ran")

    monkeypatch.setattr(scenario, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(scenario, "_solve_point", no_point)
    monkeypatch.setattr(scenario.os, "cpu_count", lambda: 4)
    for jobs in (2.5, math.nan):
        with pytest.raises(ValueError, match=f"^jobs must be a whole number, got {jobs}$"):
            run_sweep(_small_cfg(), ["b-first"], axes={"S": [2]}, reps=3, jobs=jobs)


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


def test_read_csv_needs_a_runtime_column_even_without_rows(tmp_path):
    header = "scenario,method,S,d0_m,objective_gflops_s,accepted,load_k0"
    path = tmp_path / "sweep.csv"
    path.write_text(header + ",runtime_s\n", encoding="utf-8")
    assert read_csv(path) == []
    for body in ("", "a,b_first,1,30000.0,1.5,1,1.5\n"):
        path.write_text(header + "\n" + body, encoding="utf-8")
        with pytest.raises(ValueError, match="runtime_s"):
            read_csv(path)


def test_read_csv_of_an_empty_file_names_it(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="sweep.csv: empty file"):
        read_csv(path)


SWEEP_HEADER = "scenario,method,S,d0_m,objective_gflops_s,accepted,load_k0,runtime_s"


@pytest.mark.parametrize("text, message", [
    (SWEEP_HEADER + "\na,b\n", r"sweep\.csv, line 2: 2 fields, the header has 8"),
    (SWEEP_HEADER + "\na,b_first,1,30000.0,1.5,1,1.5,0.0,9\n",
     r"sweep\.csv, line 2: 9 fields, the header has 8"),
    (SWEEP_HEADER + "\na,b_first,1,30000.0,1.5,1,1.5,0.0\na,b_first,x,30000.0,1.5,1,1.5,0.0\n",
     r"sweep\.csv, line 3: invalid literal for int\(\) with base 10: 'x'"),
    (SWEEP_HEADER.replace("load_k0", "load_kx") + "\n",
     r"sweep\.csv, line 1: bad header: invalid literal for int\(\) with base 10: 'x'"),
    ("scenario,runtime_s\na,0.0\n", r"sweep\.csv, line 1: bad header: it does not start with"),
    (SWEEP_HEADER.replace("scenario,method", "method,scenario") + "\n",
     r"sweep\.csv, line 1: bad header: it does not start with scenario,method,S,"),
], ids=["short-row", "long-row", "bad-int", "bad-load-column", "short-header", "swapped-columns"])
def test_read_csv_names_the_file_and_line_of_a_malformed_row_or_header(tmp_path, text, message):
    path = tmp_path / "sweep.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        read_csv(path)


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


@pytest.mark.parametrize("size, ce, accepted", ((4, 2240.0, 3), (8, 2240.0, 3),
                                                (8, 4480.0, 6)))
def test_rejected_sweep_point_solves_each_instance_once(monkeypatch, size, ce, accepted):
    """A sweep point the full request fails solves the full instance, then
    each prefix up to the first failing one, and nothing twice: the
    accepted prefix's outcome and the full instance's are reused."""
    cfg = ScenarioConfig(edge_sites="center", seed=11)
    budget = SearchBudget(max_nodes=20_000, time_limit=math.inf)
    solved = []
    plain = solver.solve_optimal

    def counted(inst, *args, **kwargs):
        solved.append(len(inst.chains))
        return plain(inst, *args, **kwargs)

    monkeypatch.setattr(solver, "solve_optimal", counted)
    [rec] = scenario._solve_point(cfg, ["optimal"], size, 90_000.0, ce, 0, budget, False)
    monkeypatch.undo()
    assert rec.accepted == accepted
    assert solved == [size, *range(1, min(accepted + 2, size))]

    inst = build_instance(cfg, d0_m=90_000.0, size=size, edge_capacity=ce,
                          seed=cfg.seed * 100003)
    assert solver.max_accepted_chains(inst, budget=budget)[0] == accepted
    prefix = plain(inst.subset([c.id for c in inst.chains[:accepted]]), budget=budget)
    assert rec.objective_gflops_s == prefix.solution.objective
    assert rec.loads == {0: prefix.solution.loads[0], 1: prefix.solution.loads[1]}
