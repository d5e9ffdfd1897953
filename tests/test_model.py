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
    validate_instance,
    vnf_demand,
)


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
    assert len(chain) == 3
    # Backward bound of VNF n is profile[n-1]; forward bound is the next
    # VNF's backward bound, and the last VNF reuses the final entry.
    assert [v.bwd_ms for v in chain.vnfs] == [0.2, 1.0, 5.0]
    assert [v.fwd_ms for v in chain.vnfs] == [1.0, 5.0, 5.0]
    assert [v.gflops for v in chain.vnfs] == [1.0, 2.0, 3.0]


def test_default_services_shape():
    services = default_services()
    assert set(services) == {"eMBB", "mMTC", "URLLC1", "URLLC2"}
    for svc in services.values():
        assert svc.chain_length == 8
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


def test_validate_asymmetric_distances():
    infra = Infrastructure(
        clouds=(CloudNode(0, 1.0), CloudNode(1, 1.0)),
        rrh_distances={},
        cloud_distances={0: {0: 0.0, 1: 10.0}, 1: {0: 20.0, 1: 0.0}},
    )
    problems = validate_instance(Instance(infra=infra, chains=()))
    assert any("differ" in p for p in problems)


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
    total = sum(len(c) for c in inst.chains)
    assert len(inst.infra.cloud_ids()) ** total <= 20000
