"""Golden outputs of `vnfplan solve` and `vnfplan sweep`.

Every case runs the CLI in process and compares stdout, stderr and the
exit code (and, for sweeps, the CSV bytes) with the files recorded in
tests/data.  The cases cover all five solve methods and their aliases on
an uncapacitated and on capacity-bound instances, with partial,
infeasible, over-capacity and budget-exhausted results, a b-first
split and latency violations repeated across many chains of one kind,
and an exact search and a b-first packing on twenty clouds, where many
rows share the rate data of one VNF list, plus a sweep of all six
methods with partial acceptance.  The instance files that `vnfplan gen`
writes and the LP files of `solve --emit-lp` are pinned by length and
sha256.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from vnfplan.cli import main

DATA = Path(__file__).resolve().parent / "data"

# Instances made with `vnfplan gen`, by name.
INSTANCES = {
    # The README demo instance.
    "demo": ["--mix", "3", "--seed", "1", "--edge-sites", "center"],
    # Eight clouds, capacity-bound: b-first rejects chains, the fixed
    # baselines overload clouds.
    "cap": ["--mix", "9", "--edge-capacity", "700", "--central-capacity", "900"],
    # Small enough for brute force.
    "small": ["--mix", "2", "--seed", "1", "--edge-sites", "center"],
    # Small and too tight for the eMBB chain anywhere.
    "tight": ["--mix", "2", "--seed", "1", "--edge-sites", "center",
              "--edge-capacity", "150", "--central-capacity", "150"],
    # Eight clouds, edges too small for the eMBB chain: b-first splits it.
    "split": ["--mix", "3", "--seed", "1", "--edge-capacity", "300",
              "--central-capacity", "150"],
    # Eight clouds, the central one 90 km out: many chains of one kind
    # repeat the same latency violations, and the fixed baselines overload
    # clouds.
    "far": ["--mix", "40", "--central-dist", "90000", "--seed", "2"],
    # Twenty clouds on two rings: 18 rows share 4 VNF lists (see
    # rates.RowBody).  At 20k nodes both root bounds give up before they
    # start, so the exact search starts from b_first's incumbent.
    "wide": ["--rings", "2", "--mix", "20", "--seed", "0"],
}

METHODS = ("optimal", "brute", "b-first", "fixed-split", "fixed-service")

# case name -> (instance, solve options)
SOLVE_CASES = {
    **{f"demo-{m}": ("demo", ["--method", m]) for m in METHODS},
    **{f"demo-alias-{m}": ("demo", ["--method", m])
       for m in ("B_FIRST", "bfirst", "Fixed_Split", "FIXED-SERVICE", "annealing")},
    "cap-optimal-nodes1": ("cap", ["--method", "optimal", "--max-nodes", "1"]),
    "cap-optimal-nodes20000": ("cap", ["--method", "optimal", "--max-nodes", "20000"]),
    **{f"cap-{m}": ("cap", ["--method", m]) for m in METHODS[1:]},
    **{f"small-{m}": ("small", ["--method", m]) for m in METHODS},
    **{f"tight-{m}": ("tight", ["--method", m]) for m in METHODS},
    **{f"split-{m}": ("split", ["--method", m]) for m in ("b-first", "optimal")},
    **{f"far-{m}": ("far", ["--method", m]) for m in ("fixed-split", "fixed-service")},
    "wide-optimal": ("wide", ["--method", "optimal", "--max-nodes", "20000"]),
    "wide-b-first": ("wide", ["--method", "b-first"]),
}

SWEEP_ARGS = ["--methods", "optimal,brute,b-first,fixed-split,fixed-service,cran-only",
              "--axis-s", "1,2", "--axis-ce", "150,4480", "--central-capacity", "200",
              "--reps", "2", "--edge-sites", "center"]
# Three chains of eight VNFs on two clouds exceed the brute-force cap.
SWEEP_CAP_ARGS = ["--methods", "optimal,brute,b-first,fixed-split,fixed-service,cran-only",
                  "--axis-s", "2,3", "--axis-ce", "300,4480", "--reps", "2",
                  "--edge-sites", "center"]


def _instance(tmp_path, name, capsys):
    path = tmp_path / f"{name}.yaml"
    if not path.exists():
        assert main(["gen", "--out", str(path), *INSTANCES[name]]) == 0
        capsys.readouterr()
    return path


def run_solve(tmp_path, case, capsys) -> dict:
    name, options = SOLVE_CASES[case]
    path = _instance(tmp_path, name, capsys)
    rc = main(["solve", str(path), *options])
    captured = capsys.readouterr()
    return {"rc": rc, "stdout": captured.out, "stderr": captured.err}


def run_sweep_case(tmp_path, args, capsys) -> tuple[dict, bytes | None]:
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", *args, "--out", str(out)])
    captured = capsys.readouterr()
    text = captured.out.replace(str(out), "OUT")
    csv = out.read_bytes() if out.exists() else None
    return {"rc": rc, "stdout": text, "stderr": captured.err}, csv


def _golden_solve() -> dict:
    return json.loads((DATA / "golden_solve.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(SOLVE_CASES))
def test_solve_output_matches_golden(tmp_path, capsys, case):
    assert run_solve(tmp_path, case, capsys) == _golden_solve()[case]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_written_files_match_golden(tmp_path, capsys, name):
    path = _instance(tmp_path, name, capsys)
    lp = tmp_path / f"{name}.lp"
    main(["solve", str(path), "--method", "b-first", "--emit-lp", str(lp)])
    capsys.readouterr()
    digests = {kind: {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
               for kind, data in (("yaml", path.read_bytes()), ("lp", lp.read_bytes()))}
    golden = json.loads((DATA / "golden_files.json").read_text(encoding="utf-8"))
    assert digests == golden[name]


def test_sweep_output_matches_golden(tmp_path, capsys):
    result, csv = run_sweep_case(tmp_path, SWEEP_ARGS, capsys)
    assert result == {"rc": 0, "stdout": "wrote OUT: 48 records\n", "stderr": ""}
    assert csv == (DATA / "golden_sweep.csv").read_bytes()


def test_sweep_over_brute_force_cap_matches_golden(tmp_path, capsys):
    result, csv = run_sweep_case(tmp_path, SWEEP_CAP_ARGS, capsys)
    assert result == {"rc": 2, "stdout": "",
                      "stderr": "error: hex1-S3-d030000-ce300-seed0-rep0 brute: "
                                "enumeration space exceeds cap 10000000\n"}
    assert csv is None
