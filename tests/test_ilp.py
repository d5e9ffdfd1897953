import itertools
import math
import random

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint as SciCon, milp

from util import assignment_to_binaries, min_completion, rand_instance
from vnfplan.ilp import (
    IlpModel,
    build_ilp,
    emit_lp_text,
    parse_lp_text,
    r_name,
    x_name,
)
from vnfplan.model import ChainRequest, CloudNode, Infrastructure, Instance, VnfSpec
from vnfplan.rates import INFEASIBLE, Assignment, RateTable, evaluate
from vnfplan.solver import solve_optimal


def test_variable_names():
    assert x_name(0, 1, 2) == "x_s0_n1_k2"
    assert r_name(3, 8, 0) == "r_s3_n8_k0"


def _small_instance(seed=5, **kw):
    return rand_instance(random.Random(seed), **kw)


def test_build_shapes():
    inst = _small_instance()
    mdl = build_ilp(inst)
    total = sum(len(c.vnfs) for c in inst.chains)
    n_clouds = len(inst.infra.cloud_ids())
    assert len(mdl.binaries) == total * n_clouds
    assert len(mdl.continuous) == total * n_clouds
    assert len(mdl.objective) == total * n_clouds
    onehot = [c for c in mdl.constraints if c.name.startswith("onehot")]
    caps = [c for c in mdl.constraints if c.name.startswith("cap")]
    assert len(onehot) == total
    assert len(caps) == n_clouds
    assert all(c.sense == "=" and c.rhs == 1.0 for c in onehot)
    assert all(c.sense == "<=" for c in caps)


def test_lp_round_trip_exact():
    for seed in range(8):
        inst = _small_instance(seed)
        mdl = build_ilp(inst)
        text = emit_lp_text(mdl)
        assert parse_lp_text(text) == mdl
        assert emit_lp_text(parse_lp_text(text)) == text


def test_lp_text_shape():
    inst = _small_instance(3)
    text = emit_lp_text(build_ilp(inst))
    lines = text.splitlines()
    assert lines[0].startswith("\\")
    assert lines[1] == "Minimize"
    assert "Subject To" in lines
    assert lines[-1] == "End"
    assert text.endswith("\n")


def test_parse_rejects_maximize():
    with pytest.raises(ValueError):
        parse_lp_text("Maximize\n obj: x\nEnd\n")


def test_parse_rejects_unnamed_constraint():
    with pytest.raises(ValueError):
        parse_lp_text("Minimize\n obj: x\nSubject To\n x >= 1\nEnd\n")


def test_parse_rejects_stray_content():
    with pytest.raises(ValueError):
        parse_lp_text("hello\nMinimize\n obj: x\nEnd\n")


def test_assignment_to_binaries_one_hot():
    inst = _small_instance(11)
    clouds = inst.infra.cloud_ids()
    rng = random.Random(0)
    vectors = {c.id: [rng.choice(clouds) for _ in c.vnfs] for c in inst.chains}
    a = Assignment.from_vectors(vectors)
    values = assignment_to_binaries(inst, a)
    for si, chain in enumerate(inst.chains):
        for n in range(1, len(chain.vnfs) + 1):
            ones = [k for k in clouds if values[x_name(si, n, k)] == 1]
            assert ones == [vectors[chain.id][n - 1]]


def _enumerate_assignments(inst):
    clouds = inst.infra.cloud_ids()
    per_chain = [list(itertools.product(clouds, repeat=len(c.vnfs)))
                 for c in inst.chains]
    for pick in itertools.product(*per_chain):
        yield Assignment.from_vectors(
            {c.id: list(pick[i]) for i, c in enumerate(inst.chains)})


def test_min_completion_matches_evaluate():
    rng = random.Random(2024)
    for _ in range(12):
        inst = rand_instance(rng, max_chains=2, max_vnfs=3, space_cap=700)
        table = RateTable(inst)
        mdl = build_ilp(inst, table)
        for a in _enumerate_assignments(inst):
            sol = evaluate(inst, a, table)
            comp = min_completion(mdl, assignment_to_binaries(inst, a))
            latency_ok = sol.objective != INFEASIBLE
            assert comp.binary_ok == latency_ok
            if latency_ok:
                assert math.isclose(comp.objective, sol.objective,
                                    rel_tol=1e-9, abs_tol=1e-9)
                assert comp.capacity_ok == sol.feasible
            else:
                assert comp.objective == INFEASIBLE
                assert not sol.feasible


def _solve_via_scipy(mdl: IlpModel):
    variables = list(mdl.continuous) + list(mdl.binaries)
    idx = {v: i for i, v in enumerate(variables)}
    c = np.zeros(len(variables))
    for var, coef in mdl.objective:
        c[idx[var]] += coef
    rows, lb, ub = [], [], []
    for con in mdl.constraints:
        row = np.zeros(len(variables))
        for var, coef in con.terms:
            row[idx[var]] += coef
        rows.append(row)
        if con.sense == "<=":
            lb.append(-np.inf)
            ub.append(con.rhs)
        elif con.sense == ">=":
            lb.append(con.rhs)
            ub.append(np.inf)
        else:
            lb.append(con.rhs)
            ub.append(con.rhs)
    integrality = np.array([0] * len(mdl.continuous) + [1] * len(mdl.binaries))
    lo = np.zeros(len(variables))
    hi = np.full(len(variables), np.inf)
    for var in mdl.binaries:
        hi[idx[var]] = 1.0
    for var in mdl.fixed_zero:
        hi[idx[var]] = 0.0
    return milp(c=c, constraints=SciCon(np.array(rows), np.array(lb), np.array(ub)),
                integrality=integrality, bounds=Bounds(lo, hi))


def test_external_milp_cross_check():
    """An off-the-shelf MILP solver agrees with the search on the built model."""
    rng = random.Random(99)
    checked = 0
    for _ in range(20):
        inst = rand_instance(rng, max_chains=2, max_vnfs=3, space_cap=700)
        mdl = build_ilp(inst)
        res = solve_optimal(inst)
        sci = _solve_via_scipy(mdl)
        if res.status == "optimal":
            assert sci.status == 0, sci.message
            assert math.isclose(sci.fun, res.solution.objective,
                                rel_tol=1e-6, abs_tol=1e-6)
            checked += 1
        else:
            assert res.status == "infeasible"
            assert sci.status == 2
    assert checked >= 5


def test_fixed_zero_for_unreachable_head():
    # URLLC-tight head 50 km from every cloud: all head binaries pinned.
    vnfs = (VnfSpec(1.0, 0.2, 0.2), VnfSpec(1.0, 0.2, 0.2))
    infra = Infrastructure(
        clouds=(CloudNode(0, 100.0), CloudNode(1, 100.0)),
        rrh_distances={"r0": {0: 50000.0, 1: 45000.0}},
        cloud_distances={0: {0: 0.0, 1: 5000.0}, 1: {0: 5000.0, 1: 0.0}},
    )
    chain = ChainRequest(id="c0", service=None, rrh="r0", vnfs=vnfs)
    mdl = build_ilp(Instance(infra=infra, chains=(chain,)))
    assert set(mdl.fixed_zero) == {x_name(0, 1, 0), x_name(0, 1, 1)}


def test_cut_rows_for_dead_links():
    # 90 km between clouds kills any 0.2 ms split in both directions.
    vnfs = (VnfSpec(1.0, 0.2, 0.2), VnfSpec(1.0, 0.2, 0.2))
    infra = Infrastructure(
        clouds=(CloudNode(0, 100.0), CloudNode(1, 100.0)),
        rrh_distances={"r0": {0: 1000.0, 1: 1000.0}},
        cloud_distances={0: {0: 0.0, 1: 90000.0}, 1: {0: 90000.0, 1: 0.0}},
    )
    chain = ChainRequest(id="c0", service=None, rrh="r0", vnfs=vnfs)
    mdl = build_ilp(Instance(infra=infra, chains=(chain,)))
    cuts = [c for c in mdl.constraints if c.name.startswith("cut")]
    assert len(cuts) == 2  # (k=0,j=1) and (k=1,j=0) for the single adjacency
    for cut in cuts:
        assert cut.sense == "<=" and cut.rhs == 1.0
        assert all(coef == 1.0 for _, coef in cut.terms)


def test_emit_is_deterministic():
    inst = _small_instance(21)
    mdl = build_ilp(inst)
    assert emit_lp_text(mdl) == emit_lp_text(build_ilp(inst))
