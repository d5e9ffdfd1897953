import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from util import rand_instance
from vnfplan.config import default_model, default_services
from vnfplan.model import (
    ChainRequest,
    CloudNode,
    ComputeModel,
    ConfigError,
    Infrastructure,
    Instance,
    ServiceClass,
    VnfSpec,
    build_chain,
    check_instance,
    validate_instance,
    vnf_demand,
)
from vnfplan.solver import solve_optimal


def make_model(coeffs, ref_gflops=1.0, ref_cpu_ghz=1.0):
    return ComputeModel(ref_gflops=ref_gflops, ref_cpu_ghz=ref_cpu_ghz,
                        coeffs=coeffs)


def test_demand_single_quadratic_term():
    # rb=5, i_dl=13, only the quadratic DL coefficient set, unit machine
    # ratio: demand must come out at exactly 5 * 13^2.
    model = make_model({1: {"dl": (0.0, 0.0, 1.0), "ul": (0.0, 0.0, 0.0)}})
    svc = ServiceClass(name="t", rb=5, mcs_dl=13, mcs_ul=7,
                       latency_profile=(1.0,))
    assert vnf_demand(model, svc, 1) == 845.0


def test_demand_combines_both_directions_and_machine_ratio():
    model = make_model({2: {"dl": (1.0, 2.0, 0.0), "ul": (0.5, 0.0, 1.0)}},
                       ref_gflops=100.0, ref_cpu_ghz=2.5)
    svc = ServiceClass(name="t", rb=3, mcs_dl=4, mcs_ul=2,
                       latency_profile=(1.0, 1.0))
    # poly = (1 + 2*4) + (0.5 + 2^2) = 13.5; scale = 100*3/2.5 = 120
    assert vnf_demand(model, svc, 2) == pytest.approx(120 * 13.5)


def test_demand_unknown_position_raises():
    model = make_model({1: {"dl": (0.0, 0.0, 1.0), "ul": (0.0, 0.0, 0.0)}})
    svc = ServiceClass(name="t", rb=1, mcs_dl=1, mcs_ul=1,
                       latency_profile=(1.0, 1.0))
    with pytest.raises(ConfigError):
        vnf_demand(model, svc, 2)


def test_build_chain_latency_wiring():
    model = make_model({n: {"dl": (float(n), 0.0, 0.0), "ul": (0.0, 0.0, 0.0)}
                        for n in range(1, 4)})
    svc = ServiceClass(name="t", rb=1, mcs_dl=1, mcs_ul=1,
                       latency_profile=(0.2, 1.0, 5.0))
    chain = build_chain(model, svc, "r0", "c0")
    assert len(chain.vnfs) == 3
    # Backward bound of VNF n is profile[n-1]; forward bound is the next
    # VNF's backward bound, and the last VNF reuses the final entry.
    assert [v.bwd_ms for v in chain.vnfs] == [0.2, 1.0, 5.0]
    assert [v.fwd_ms for v in chain.vnfs] == [1.0, 5.0, 5.0]
    assert [v.gflops for v in chain.vnfs] == [1.0, 2.0, 3.0]


def test_default_services_shape():
    services = default_services()
    assert set(services) == {"eMBB", "mMTC", "URLLC1", "URLLC2"}
    for svc in services.values():
        assert len(svc.latency_profile) == 8
    assert all(b == 0.2 for b in services["URLLC1"].latency_profile)
    assert all(b == 0.5 for b in services["URLLC2"].latency_profile)


def test_default_demand_orderings():
    model = default_model()
    services = default_services()
    embb = [vnf_demand(model, services["eMBB"], n) for n in range(1, 9)]
    # Lower layers process more data per request.
    assert all(a > b for a, b in zip(embb, embb[1:]))
    for n in range(1, 9):
        d = {name: vnf_demand(model, services[name], n) for name in services}
        assert d["URLLC2"] >= d["eMBB"] >= d["mMTC"]


def _tiny_instance():
    infra = Infrastructure(
        clouds=(CloudNode(0, 100.0), CloudNode(1, 50.0)),
        rrh_distances={"r0": {0: 30000.0, 1: 1000.0}},
        cloud_distances={0: {0: 0.0, 1: 30000.0}, 1: {0: 30000.0, 1: 0.0}},
    )
    chain = ChainRequest(id="c0", service=None, rrh="r0",
                         vnfs=(VnfSpec(1.0, 1.0, 1.0),))
    return Instance(infra=infra, chains=(chain,))


def test_validate_clean_instance():
    assert validate_instance(_tiny_instance()) == []


def test_validate_reports_all_problems():
    infra = Infrastructure(
        clouds=(CloudNode(0, 100.0), CloudNode(0, -1.0)),
        rrh_distances={"r0": {0: 1000.0}},
        cloud_distances={0: {0: 5.0}},
    )
    chains = (
        ChainRequest(id="c0", service=None, rrh="r0",
                     vnfs=(VnfSpec(-1.0, 0.0, 1.0),)),
        ChainRequest(id="c0", service=None, rrh="nowhere", vnfs=()),
    )
    problems = validate_instance(Instance(infra=infra, chains=chains))
    text = "\n".join(problems)
    assert "duplicate cloud id 0" in text
    assert "capacity must be positive" in text
    assert "distance (0,0) must be zero" in text
    assert "demand is negative" in text
    assert "forward bound must be positive" in text
    assert "duplicate chain id c0" in text
    assert "unknown RRH nowhere" in text
    assert "has no VNFs" in text

    # A negative cloud id, a negative distance both ways, and an entry (0,2)
    # whose reverse (2,0) is missing.
    infra = Infrastructure(
        clouds=tuple(CloudNode(k, 1.0) for k in (0, 1, 2, -1)),
        rrh_distances={"r0": {0: 0.0, 1: 0.0, 2: 0.0, -1: 0.0}},
        cloud_distances={-1: {0: 1.0, 1: 1.0, 2: 1.0}, 0: {-1: 1.0, 1: -3.0, 2: 4.0},
                         1: {-1: 1.0, 0: -3.0, 2: 1.0}, 2: {-1: 1.0, 1: 1.0}},
    )
    chain = ChainRequest(id="c0", service=None, rrh="r0", vnfs=(VnfSpec(1.0, 1.0, 1.0),))
    assert validate_instance(Instance(infra=infra, chains=(chain,))) == [
        "cloud id -1 must be non-negative",
        "cloud distance (0,1) is negative",
        "cloud distance (1,0) is negative",
        "missing cloud distance entry (2,0)",
    ]

    tiny = _tiny_instance()
    for speed in (0.0, -1.0, math.nan):
        infra = dataclasses.replace(tiny.infra, fiber_speed=speed)
        assert validate_instance(Instance(infra=infra, chains=tiny.chains)) == [
            f"fiber speed must be positive, got {speed}"]


def test_validate_reports_each_rrh_once():
    """Every RRH row is checked once, before the chains: a row that many
    chains use is reported once, and a row that no chain uses still is."""
    infra = Infrastructure(
        clouds=(CloudNode(0, 100.0), CloudNode(1, 50.0)),
        rrh_distances={"r0": {0: -1.0}, "r1": {0: 0.0, 1: math.nan},
                       "r2": {0: 0.0, 1: -5.0}},
        cloud_distances={0: {0: 0.0, 1: 10.0}, 1: {0: 10.0, 1: 0.0}},
    )
    chains = tuple(ChainRequest(id=f"c{i}", service=None, rrh=rrh,
                                vnfs=(VnfSpec(1.0, 1.0, 1.0),))
                   for i, rrh in enumerate(("r0", "r1", "r0", "r1", "r0")))
    assert validate_instance(Instance(infra=infra, chains=chains)) == [
        "RRH r0 distance to cloud 0 is negative",
        "RRH r0 has no distance to cloud 1",
        "RRH r1 distance to cloud 1 is NaN",
        "RRH r2 distance to cloud 1 is negative",
    ]


def test_validate_repeats_shared_problems_at_every_chain():
    """The problems of a VNF tuple or service that several chains share
    are reported at every chain that names it, in chain order: a VNF
    problem under each chain's id, a service problem as is."""
    infra = Infrastructure(clouds=(CloudNode(0, 100.0),), rrh_distances={"r0": {0: 0.0}},
                           cloud_distances={0: {0: 0.0}})
    bad_vnfs = (VnfSpec(1.0, 1.0, 1.0), VnfSpec(-2.0, 0.0, math.nan))
    good_vnfs = (VnfSpec(1.0, 1.0, 1.0),)
    bad = ServiceClass("URLLC", rb=0, mcs_dl=29, mcs_ul=3, latency_profile=(1.0, -1.0))
    good = ServiceClass("eMBB", rb=1, mcs_dl=3, mcs_ul=3, latency_profile=(1.0,))
    chains = (
        ChainRequest("a", bad, "r0", bad_vnfs),
        ChainRequest("b", good, "r0", good_vnfs),
        ChainRequest("c", bad, "r0", bad_vnfs),
        ChainRequest("d", None, "r0", bad_vnfs[:1] + bad_vnfs[1:]),
        ChainRequest("a", bad, "zz", good_vnfs),
    )
    assert chains[3].vnfs == bad_vnfs and chains[3].vnfs is not bad_vnfs
    assert validate_instance(Instance(infra=infra, chains=chains)) == [
        "chain a VNF 2 demand is negative",
        "chain a VNF 2 forward bound must be positive",
        "chain a VNF 2 backward bound must be positive",
        "service URLLC: rb must be at least 1",
        "service URLLC: mcs_dl out of range 0..28",
        "service URLLC: latency profile entries must be positive",
        "chain c VNF 2 demand is negative",
        "chain c VNF 2 forward bound must be positive",
        "chain c VNF 2 backward bound must be positive",
        "service URLLC: rb must be at least 1",
        "service URLLC: mcs_dl out of range 0..28",
        "service URLLC: latency profile entries must be positive",
        "chain d VNF 2 demand is negative",
        "chain d VNF 2 forward bound must be positive",
        "chain d VNF 2 backward bound must be positive",
        "duplicate chain id a",
        "chain a references unknown RRH zz",
        "service URLLC: rb must be at least 1",
        "service URLLC: mcs_dl out of range 0..28",
        "service URLLC: latency profile entries must be positive",
    ]


def test_validate_rejects_distances_to_unknown_clouds():
    """An RRH row may not name a cloud the infrastructure does not hold;
    each extra cloud is reported once, in sorted order, and every library
    entry point raises ValueError."""
    tiny = _tiny_instance()
    row = {7: 5000.0, 0: 30000.0, 1: 1000.0, 3: 5000.0}
    infra = dataclasses.replace(tiny.infra, rrh_distances={"r0": row})
    inst = Instance(infra=infra, chains=tiny.chains)
    assert validate_instance(inst) == ["RRH r0 has a distance to unknown cloud 3",
                                       "RRH r0 has a distance to unknown cloud 7"]
    with pytest.raises(ValueError, match="RRH r0 has a distance to unknown cloud 3; "):
        check_instance(inst)
    with pytest.raises(ValueError, match="unknown cloud 7"):
        solve_optimal(inst)


def test_validate_rejects_nan_and_infinite_values():
    nan, inf = math.nan, math.inf
    infra = Infrastructure(
        clouds=(CloudNode(0, 100.0), CloudNode(1, 50.0), CloudNode(2, 50.0)),
        rrh_distances={"r0": {0: nan, 1: 0.0, 2: 0.0}},
        cloud_distances={0: {0: 0.0, 1: nan, 2: 10.0}, 1: {0: nan, 1: 0.0, 2: 10.0},
                         2: {0: nan, 1: 10.0, 2: 0.0}},
    )
    vnfs = (VnfSpec(nan, 1.0, 1.0), VnfSpec(inf, 1.0, 1.0), VnfSpec(-inf, 1.0, 1.0))
    chain = ChainRequest(id="c0", service=None, rrh="r0", vnfs=vnfs)
    # (2,0) is NaN and (0,2) is not: each NaN entry is reported once, never
    # as a pair of distances that differ.
    assert validate_instance(Instance(infra=infra, chains=(chain,))) == [
        "cloud distance (0,1) is NaN",
        "cloud distance (1,0) is NaN",
        "cloud distance (2,0) is NaN",
        "RRH r0 distance to cloud 0 is NaN",
        "chain c0 VNF 1 demand is not finite",
        "chain c0 VNF 2 demand is not finite",
        "chain c0 VNF 3 demand is negative",
    ]


def test_validate_accepts_uncapped_clouds_and_unreachable_links():
    """An infinite capacity means uncapped, an infinite distance unreachable."""
    inf = math.inf
    infra = Infrastructure(
        clouds=(CloudNode(0, inf), CloudNode(1, 50.0)),
        rrh_distances={"r0": {0: 0.0, 1: inf}},
        cloud_distances={0: {0: 0.0, 1: inf}, 1: {0: inf, 1: 0.0}},
    )
    chain = ChainRequest(id="c0", service=None, rrh="r0", vnfs=(VnfSpec(1.0, 1.0, 1.0),))
    assert validate_instance(Instance(infra=infra, chains=(chain,))) == []


def test_validate_asymmetric_distances():
    infra = Infrastructure(
        clouds=(CloudNode(0, 1.0), CloudNode(1, 1.0)),
        rrh_distances={},
        cloud_distances={0: {0: 0.0, 1: 10.0}, 1: {0: 20.0, 1: 0.0}},
    )
    # One message per unordered pair, not one per ordered pair.
    assert validate_instance(Instance(infra=infra, chains=())) == [
        "cloud distances (0,1) and (1,0) differ"]


def test_validate_mcs_range():
    svc = ServiceClass(name="bad", rb=0, mcs_dl=29, mcs_ul=-1,
                       latency_profile=(0.0,))
    inst = _tiny_instance()
    chain = ChainRequest(id="c1", service=svc, rrh="r0",
                         vnfs=(VnfSpec(1.0, 1.0, 1.0),))
    problems = validate_instance(Instance(infra=inst.infra,
                                          chains=(chain,)))
    text = "\n".join(problems)
    assert "rb must be at least 1" in text
    assert "mcs_dl out of range" in text
    assert "mcs_ul out of range" in text
    assert "latency profile entries must be positive" in text


def test_instance_chain_lookup_and_subset():
    rng = random.Random(7)
    inst = rand_instance(rng, max_chains=3)
    ids = [c.id for c in inst.chains]
    sub = inst.subset(reversed(ids))
    assert [c.id for c in sub.chains] == ids  # original order preserved
    assert inst.subset([]).chains == ()


def test_infrastructure_distance_lookup():
    inst = _tiny_instance()
    assert inst.infra.dist(0, 0) == 0.0
    assert inst.infra.dist(0, 1) == 30000.0
    assert inst.infra.capacity(1) == 50.0
    with pytest.raises(KeyError):
        inst.infra.capacity(9)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generated_instances_are_well_formed(seed):
    inst = rand_instance(random.Random(seed))
    assert validate_instance(inst) == []
    total = sum(len(c.vnfs) for c in inst.chains)
    assert len(inst.infra.cloud_ids()) ** total <= 20000
