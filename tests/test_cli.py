import argparse
import errno
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from util import _solve_via_scipy
from vnfplan import cli
from vnfplan.cli import main
from vnfplan.config import load_instance, save_instance
from vnfplan.ilp import build_ilp, parse_lp_text
from vnfplan.model import ChainRequest, CloudNode, Infrastructure, Instance, VnfSpec
from vnfplan.scenario import ScenarioConfig, read_csv
from vnfplan.solver import SearchBudget, solve_optimal


def test_gen_writes_loadable_instance(tmp_path):
    out = tmp_path / "inst.yaml"
    rc = main(["gen", "--out", str(out), "--mix", "4",
               "--edge-sites", "center"])
    assert rc == 0
    inst = load_instance(out)
    assert len(inst.chains) == 4
    assert inst.infra.cloud_ids() == (0, 1)


def test_gen_is_deterministic(tmp_path):
    a = tmp_path / "a.yaml"
    b = tmp_path / "b.yaml"
    assert main(["gen", "--out", str(a), "--mix", "5"]) == 0
    assert main(["gen", "--out", str(b), "--mix", "5"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_unknown_profile(tmp_path, capsys):
    rc = main(["gen", "--out", str(tmp_path / "x.yaml"),
               "--mix-profile", "nosuch"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def _gen(tmp_path, *extra):
    out = tmp_path / "inst.yaml"
    assert main(["gen", "--out", str(out), "--mix", "4",
                 "--edge-sites", "center", *extra]) == 0
    return out


def test_solve_optimal_and_lp(tmp_path, capsys):
    inst = _gen(tmp_path)
    lp = tmp_path / "model.lp"
    rc = main(["solve", str(inst), "--method", "optimal",
               "--emit-lp", str(lp)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status: optimal" in out
    assert "accepted: 4/4" in out
    assert "objective:" in out
    mdl = parse_lp_text(lp.read_text())
    assert mdl.binaries
    # Re-emitting produces identical bytes.
    lp2 = tmp_path / "model2.lp"
    main(["solve", str(inst), "--method", "optimal", "--emit-lp", str(lp2)])
    assert lp.read_bytes() == lp2.read_bytes()


def test_solve_bfirst_logs_events(tmp_path, capsys):
    inst = _gen(tmp_path)
    rc = main(["solve", str(inst), "--method", "b-first"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("outcome=accept") == 4
    assert "evaluations:" in out
    assert "chain c000:" in out


def test_solve_fixed_baselines(tmp_path):
    inst = _gen(tmp_path)
    assert main(["solve", str(inst), "--method", "fixed-split"]) == 0
    assert main(["solve", str(inst), "--method", "fixed-service"]) == 0


@pytest.mark.parametrize("command", ["gen", "solve", "sweep", "sweep-to-directory"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, monkeypatch, command):
    target = tmp_path / "absent" / "out"
    if command == "sweep-to-directory":
        target = tmp_path / "out"
        target.mkdir()
    if command == "gen":
        args = ["gen", "--out", str(target), "--mix", "2", "--edge-sites", "center"]
    elif command == "solve":
        args = ["solve", str(_gen(tmp_path)), "--method", "b-first", "--emit-lp", str(target)]
    else:
        args = ["sweep", "--methods", "b-first", "--out", str(target), "--axis-s", "1",
                "--reps", "1", "--edge-sites", "center"]
        # The path is checked before any point is solved.
        monkeypatch.setattr(cli, "run_sweep",
                            lambda *a, **k: pytest.fail("run_sweep ran before the check"))
    capsys.readouterr()
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "absent").exists()
    if command == "sweep-to-directory":
        assert captured.err.endswith(": Is a directory\n")
        assert not any(target.iterdir())


def test_solve_missing_file(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "absent.yaml")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


_SERVICE_CHAIN = (("chains",), [{"id": "c0", "rrh": "r00", "service": "eMBB"}])

# Well-formed YAML whose sections have the wrong shape or an unusable
# value, as (path, value) edits of a generated instance, and text that is
# not an instance at all.  Each must exit 2 with one error line.
MALFORMED = {
    "chains-of-numbers": [(("chains",), [1, 2])],
    "chains-mapping": [(("chains",), {"a": 1})],
    "chains-null": [(("chains",), None)],
    "services-list": [(("services",), [1])],
    "model-coeffs-list": [(("model",), {"coeffs": [1]})],
    "rrh-distances-row-list": [(("infrastructure", "rrh_distances"), {"r0": [1, 2]})],
    "service-rb-infinite": [(("services", "eMBB", "rb"), float("inf"))],
    "cloud-id-infinite": [(("infrastructure", "clouds", 0, "id"), float("inf"))],
    "vnf-demand-nan": [(("chains", 0, "vnfs", 0, "gflops"), float("nan"))],
    "model-row-short": [(("model", "coeffs", 1, "dl"), [1.0]), _SERVICE_CHAIN],
    "model-cpu-zero": [(("model", "ref_cpu_ghz"), 0), _SERVICE_CHAIN],
    "cloud-distances-too-wide": [(("infrastructure", "cloud_distances"),
                                  [[0.0, 1000.0, 5.0], [1000.0, 0.0, 5.0]])],
    "cloud-distances-too-tall": [(("infrastructure", "cloud_distances"),
                                  [[0.0, 1000.0], [1000.0, 0.0], [5.0, 5.0]])],
    "chain-without-id": [(("chains", 0), {"rrh": "r00", "service": "eMBB"})],
    "cloud-id-fraction": [(("infrastructure", "clouds", 1, "id"), 1.5)],
    "service-rb-fraction": [(("services", "eMBB", "rb"), 250.7)],
    "service-mcs-fraction": [(("services", "mMTC", "mcs_dl"), 27.9)],
    "model-position-fraction": [(("model", "coeffs"),
                                 {1.5: {"dl": [0.0, 0.0, 0.0], "ul": [0.0, 0.0, 0.0]}})],
    "rrh-distance-cloud-fraction": [(("infrastructure", "rrh_distances", "r00"),
                                     {0: 30000.0, 1.5: 0.0})],
    "rrh-distance-unknown-cloud": [(("infrastructure", "rrh_distances", "r00", 7), 5000.0)],
    "unclosed-flow-list": "chains: [1, 2\n",
    "top-level-list": "[1, 2]\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_solve_rejects_malformed_file(tmp_path, capsys, case):
    path = tmp_path / "bad.yaml"
    change = MALFORMED[case]
    if isinstance(change, str):
        path.write_text(change, encoding="utf-8")
    else:
        assert main(["gen", "--out", str(path), "--mix", "2",
                     "--edge-sites", "center"]) == 0
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
        for keys, value in change:
            node = data
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = value
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
    capsys.readouterr()
    rc = main(["solve", str(path), "--method", "b-first"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert [line for line in captured.err.splitlines() if line.startswith("error:")] \
        == captured.err.splitlines()[:1]
    assert "Traceback" not in captured.err


def test_solve_unknown_method(tmp_path, capsys):
    inst = _gen(tmp_path)
    for alias in ("b-first", "bfirst", "B_FIRST"):
        assert main(["solve", str(inst), "--method", alias]) == 0
    capsys.readouterr()
    # cran-only is a sweep variant, not a solve method.
    for name in ("annealing", "cran-only"):
        rc = main(["solve", str(inst), "--method", name])
        assert rc == 2
        assert f"error: unknown method {name!r}" in capsys.readouterr().err


def _far_urllc_file(tmp_path):
    infra = Infrastructure(
        clouds=(CloudNode(0, 10000.0), CloudNode(1, 10000.0)),
        rrh_distances={"r0": {0: 50000.0, 1: 42000.0}},
        cloud_distances={0: {0: 0.0, 1: 8000.0}, 1: {0: 8000.0, 1: 0.0}},
    )
    chain = ChainRequest(id="c0", service=None, rrh="r0",
                         vnfs=tuple(VnfSpec(1.0, 0.2, 0.2) for _ in range(3)))
    path = tmp_path / "far.yaml"
    save_instance(path, Instance(infra=infra, chains=(chain,)))
    return path


def _write_instance(tmp_path, name, infra, chains):
    path = tmp_path / name
    save_instance(path, Instance(infra=infra, chains=chains))
    return path


def test_solve_rejects_unknown_rrh(tmp_path, capsys):
    infra = Infrastructure(
        clouds=(CloudNode(0, 10000.0), CloudNode(1, 10000.0)),
        rrh_distances={"r0": {0: 30000.0, 1: 1000.0}},
        cloud_distances={0: {0: 0.0, 1: 8000.0}, 1: {0: 8000.0, 1: 0.0}},
    )
    chain = ChainRequest(id="c0", service=None, rrh="nowhere",
                         vnfs=(VnfSpec(1.0, 1.0, 1.0),))
    path = _write_instance(tmp_path, "rrh.yaml", infra, (chain,))
    rc = main(["solve", str(path), "--method", "b-first"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error: chain c0 references unknown RRH nowhere" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("method", ["fixed-split", "fixed-service"])
def test_fixed_baselines_without_central_cloud_exit_2(tmp_path, capsys, method):
    infra = Infrastructure(
        clouds=(CloudNode(1, 10000.0), CloudNode(2, 10000.0)),
        rrh_distances={"r0": {1: 30000.0, 2: 1000.0}},
        cloud_distances={1: {1: 0.0, 2: 8000.0}, 2: {1: 8000.0, 2: 0.0}},
    )
    chain = ChainRequest(id="c0", service=None, rrh="r0", vnfs=(VnfSpec(1.0, 1.0, 1.0),))
    path = _write_instance(tmp_path, "noc0.yaml", infra, (chain,))
    assert main(["solve", str(path), "--method", "b-first"]) == 0
    capsys.readouterr()
    assert main(["solve", str(path), "--method", method]) == 2
    assert capsys.readouterr() == ("", "error: fixed baselines need a central cloud with id 0\n")


def test_solve_rejects_instance_without_clouds(tmp_path, capsys):
    infra = Infrastructure(clouds=(), rrh_distances={"r0": {}}, cloud_distances={})
    chain = ChainRequest(id="c0", service=None, rrh="r0",
                         vnfs=(VnfSpec(1.0, 1.0, 1.0),))
    path = _write_instance(tmp_path, "empty.yaml", infra, (chain,))
    rc = main(["solve", str(path), "--method", "optimal"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error: infrastructure has no clouds" in captured.err
    assert "Traceback" not in captured.err
    assert "status:" not in captured.out


def test_solve_infeasible_exit_code(tmp_path, capsys):
    path = _far_urllc_file(tmp_path)
    rc = main(["solve", str(path), "--method", "optimal"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "status: infeasible" in out
    assert "first-vnf-placement" in out
    assert main(["solve", str(path), "--method", "fixed-split"]) == 3
    assert main(["solve", str(path), "--method", "b-first"]) == 3


def test_solve_budget_exhausted_exit_code(tmp_path, capsys):
    # Capacity-bound, so the root proof fails, and b_first places only
    # some chains, so the search has no warm start.
    inst = tmp_path / "cap.yaml"
    assert main(["gen", "--out", str(inst), "--mix", "9", "--edge-capacity", "700",
                 "--central-capacity", "900", "--edge-sites", "center"]) == 0
    rc = main(["solve", str(inst), "--method", "optimal", "--max-nodes", "1"])
    out = capsys.readouterr().out
    assert rc == 4
    assert "status: budget-exhausted" in out


def test_solve_proves_capacity_infeasible_at_default_budget(tmp_path, capsys):
    # The URLLC2 chains fit neither cloud alone.  Branched first, they are
    # rejected in a few nodes; in input order the search ran out of its
    # 10M-node default budget.
    inst = tmp_path / "cap.yaml"
    assert main(["gen", "--out", str(inst), "--mix", "9", "--edge-capacity", "700",
                 "--central-capacity", "900", "--edge-sites", "center"]) == 0
    capsys.readouterr()
    rc = main(["solve", str(inst), "--method", "optimal"])
    assert (rc, capsys.readouterr().out) == (3, "status: infeasible\ninfeasible: capacity\n")
    loaded = load_instance(inst)
    res = solve_optimal(loaded)
    assert res.status == "infeasible"
    assert res.nodes <= 100
    pytest.importorskip("scipy")
    assert _solve_via_scipy(build_ilp(loaded)).status == 2   # infeasible


@pytest.mark.parametrize("bad, message", [
    (["--max-nodes", "-5"], "max_nodes must be non-negative, got -5"),
    (["--time-limit", "-1"], "time_limit must be non-negative, got -1.0"),
    (["--time-limit", "nan"], "time_limit must be non-negative, got nan"),
], ids=["max-nodes-negative", "time-limit-negative", "time-limit-nan"])
def test_solve_rejects_bad_budget(tmp_path, capsys, bad, message):
    inst = _gen(tmp_path)
    capsys.readouterr()
    rc = main(["solve", str(inst), "--method", "optimal", *bad])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_sweep_rejects_bad_time_limit(tmp_path, capsys, value):
    out = tmp_path / "x.csv"
    rc = main(["sweep", "--methods", "optimal", "--out", str(out), "--axis-s", "1",
               "--reps", "1", "--edge-sites", "center", "--time-limit", value])
    assert rc == 2
    assert capsys.readouterr().err == \
        f"error: time_limit must be non-negative, got {float(value)}\n"
    assert not out.exists()


def test_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--methods", "b-first,fixed-split", "--out", str(out),
               "--axis-s", "2,3", "--reps", "2", "--edge-sites", "center"])
    assert rc == 0
    records = read_csv(out)
    assert len(records) == 8
    assert {r.method for r in records} == {"b_first", "fixed_split"}
    assert all(r.runtime_s == 0.0 for r in records)


def test_sweep_reports_a_write_failure_after_the_sweep(tmp_path, capsys, monkeypatch):
    out = tmp_path / "sweep.csv"
    solved = []

    def full_disk(records, path):
        solved.extend(records)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    monkeypatch.setattr(cli, "export_csv", full_disk)
    capsys.readouterr()
    assert main(["sweep", "--methods", "b-first", "--out", str(out), "--axis-s", "1",
                 "--reps", "1", "--edge-sites", "center"]) == 2
    assert len(solved) == 1
    assert capsys.readouterr() == ("", f"error: cannot write {out}: No space left on device\n")


def test_sweep_is_deterministic(tmp_path):
    args = ["sweep", "--methods", "b-first", "--axis-s", "2",
            "--reps", "2", "--edge-sites", "center"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_measure_runtime(tmp_path):
    out = tmp_path / "timed.csv"
    rc = main(["sweep", "--methods", "b-first", "--out", str(out),
               "--axis-s", "4", "--reps", "2", "--edge-sites", "center",
               "--measure-runtime"])
    assert rc == 0
    records = read_csv(out)
    assert any(r.runtime_s > 0.0 for r in records)


def test_sweep_requires_methods(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--methods", " , ", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_sweep_rejects_an_empty_axis(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--methods", "b-first", "--out", str(tmp_path / "x.csv"),
              "--axis-s", ","])
    assert exc.value.code == 2
    assert "error: empty axis" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_gen_rejects_an_invalid_instance(tmp_path, capsys):
    out = tmp_path / "x.yaml"
    assert main(["gen", "--out", str(out), "--central-capacity", "0"]) == 2
    assert capsys.readouterr().err == "error: cloud 0 capacity must be positive, got 0.0\n"
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["gen", "--mix", "-3"], "chain count must be non-negative, got -3"),
    (["gen", "--rings", "-2"], "rings must be non-negative, got -2"),
    (["sweep", "--methods", "b-first", "--reps", "1", "--rings", "-1"],
     "rings must be non-negative, got -1"),
], ids=["gen-mix", "gen-rings", "sweep-rings"])
def test_negative_chain_count_or_rings_exits_2(tmp_path, capsys, args, message):
    out = tmp_path / "x"
    assert main([*args, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["gen", "--central-dist", "-100"], "central distance must be non-negative, got -100.0"),
    (["gen", "--isd", "-500"], "isd must be non-negative, got -500.0"),
    (["sweep", "--methods", "b-first", "--reps", "1", "--axis-d0", "-100"],
     "central distance must be non-negative, got -100.0"),
    (["sweep", "--methods", "b-first", "--reps", "1", "--isd", "-500"],
     "isd must be non-negative, got -500.0"),
    (["gen", "--central-dist", "inf"], "central distance must be finite, got inf"),
    (["gen", "--central-dist", "nan"], "central distance must be finite, got nan"),
    (["gen", "--isd", "inf"], "isd must be finite, got inf"),
    (["gen", "--isd", "nan"], "isd must be finite, got nan"),
    (["sweep", "--methods", "b-first", "--reps", "1", "--axis-d0", "nan"],
     "central distance must be finite, got nan"),
    (["sweep", "--methods", "b-first", "--reps", "1", "--isd", "inf"],
     "isd must be finite, got inf"),
    (["gen", "--edge-capacity", "nan"], "edge capacity must be positive, got nan"),
    (["sweep", "--methods", "b-first", "--reps", "1", "--axis-ce", "nan"],
     "edge capacity must be positive, got nan"),
], ids=["gen-central-dist", "gen-isd", "sweep-d0", "sweep-isd", "gen-central-dist-inf",
        "gen-central-dist-nan", "gen-isd-inf", "gen-isd-nan", "sweep-d0-nan", "sweep-isd-inf",
        "gen-edge-capacity-nan", "sweep-ce-nan"])
def test_negative_distance_exits_2(tmp_path, capsys, args, message):
    out = tmp_path / "x"
    assert main([*args, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_zero_distances_stay_valid(tmp_path, capsys):
    out = tmp_path / "x.yaml"
    assert main(["gen", "--out", str(out), "--central-dist", "0", "--isd", "0"]) == 0
    inst = load_instance(out)
    assert {inst.infra.dist(0, k) for k in inst.infra.cloud_ids()} == {0.0}
    csv = tmp_path / "x.csv"
    assert main(["sweep", "--methods", "b-first", "--out", str(csv), "--reps", "1",
                 "--axis-s", "2", "--axis-d0", "0", "--isd", "0"]) == 0
    assert [r.d0_m for r in read_csv(csv)] == [0.0]
    capsys.readouterr()


@pytest.mark.parametrize("bad", [
    ["--mix-profile", "nosuch", "--rings", "-1"],
    ["--central-capacity", "-1"],
    ["--axis-d0", "nan"],
    ["--isd", "nan"],
    ["--axis-d0", "-100"],
    ["--isd", "-500"],
], ids=["mix-profile-and-rings", "central-capacity", "d0-nan", "isd-nan", "d0-negative",
        "isd-negative"])
def test_sweep_rejects_bad_scenario_input_with_zero_reps(tmp_path, capsys, bad):
    out = tmp_path / "x.csv"
    rc = main(["sweep", "--methods", "b-first", "--edge-sites", "center",
               "--out", str(out), "--reps", "0", *bad])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


def test_scenario_options_show_the_library_default():
    """gen and sweep document every ScenarioConfig option with its default."""
    cfg = ScenarioConfig()
    subparsers = next(action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    for command in ("gen", "sweep"):
        options = [action for action in subparsers.choices[command]._actions
                   if hasattr(cfg, action.dest)]
        assert len(options) == {"gen": 8, "sweep": 7}[command]
        for action in options:
            assert action.help, (command, action.dest)
            assert (action.help % vars(action)).endswith(
                f"(default {getattr(cfg, action.dest)})"), (command, action.dest)


def test_parser_defaults_are_the_library_defaults():
    """Every option default that ScenarioConfig or SearchBudget also has is
    read from it; the rest are listed here."""
    cfg = ScenarioConfig()
    expected = {**vars(cfg), **vars(SearchBudget()), "mix": cfg.mix_size,
                "out": "x", "instance": "x", "method": "optimal", "emit_lp": None,
                "methods": "x", "axis_s": None, "axis_d0": None, "axis_ce": None,
                "reps": 10, "measure_runtime": False, "jobs": 1}
    parser = cli._build_parser()
    for argv in (["gen", "--out", "x"], ["solve", "x"],
                 ["sweep", "--methods", "x", "--out", "x"]):
        args = vars(parser.parse_args(argv))
        assert args.pop("command") == argv[0]
        assert args == {dest: expected[dest] for dest in args}


def test_sweep_unknown_method(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(["sweep", "--methods", "magic", "--out", str(out)])
    assert rc == 2
    assert "unknown method" in capsys.readouterr().err
    for bad, message in ((["--axis-ce", "-5"], "edge capacity must be positive, got -5.0"),
                         (["--central-capacity", "-5"], "cloud 0 capacity must be positive"),
                         (["--axis-s", "-2"], "chain counts must be non-negative"),
                         (["--jobs", "0"], "jobs must be at least 1")):
        rc = main(["sweep", "--methods", "b-first", "--out", str(out),
                   "--reps", "1", "--edge-sites", "center", *bad])
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_error_names_its_point(tmp_path, capsys):
    """Three chains of eight VNFs on two clouds exceed the brute-force cap."""
    out = tmp_path / "x.csv"
    rc = main(["sweep", "--methods", "optimal,brute,b-first", "--out", str(out),
               "--axis-s", "2,3", "--axis-ce", "300,4480", "--reps", "2",
               "--edge-sites", "center"])
    err = capsys.readouterr().err
    assert rc == 2
    assert not out.exists()
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: hex1-S3-d030000-ce300-seed0-rep0 brute: "
        "enumeration space exceeds cap 10000000"]


def test_help_and_console_script():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    proc = subprocess.run([sys.executable, "-m", "vnfplan.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen" in proc.stdout and "solve" in proc.stdout and "sweep" in proc.stdout


def test_child_process_imports_package_under_test(tmp_path):
    """A child started in another directory imports this checkout's
    vnfplan, not a stale installed copy or nothing at all."""
    proc = subprocess.run(
        [sys.executable, "-c", "import vnfplan; print(vnfplan.__file__)"],
        capture_output=True, text=True, cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    src_pkg = Path(__file__).resolve().parent.parent / "src" / "vnfplan"
    assert Path(proc.stdout.strip()).resolve().parent == src_pkg
