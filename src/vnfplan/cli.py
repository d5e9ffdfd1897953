"""Command line interface: generate scenarios, solve instances, run sweeps.

Units everywhere: distances in meters, demands in GFLOPS, rates and
capacities in GFLOPS/s, latency bounds in milliseconds.
"""
from __future__ import annotations

import argparse
import errno
import os
import sys
from typing import Optional, Sequence

from .config import default_model, default_services, load_instance, save_instance
from .ilp import build_ilp, emit_lp_text
from .model import Instance, validate_instance
from .rates import RateTable, Solution
from .scenario import METHOD_ORDER, ScenarioConfig, build_instance, run_sweep, export_csv
from .solver import METHODS, SearchBudget, method_name, run_method

# The ScenarioConfig fields that gen and sweep both take as options, in
# option order, with their help; each default is the field's.
_SCENARIO_HELP = {
    "seed": "RNG seed",
    "rings": "hexagonal rings of macro sites",
    "isd": "inter-site distance in meters",
    "central_capacity": "central cloud capacity in GFLOPS/s",
    "edge_capacity": "edge cloud capacity in GFLOPS/s",
    "mix_profile": "'standard' for the balanced mix, or a service name "
                   "to make every chain that service",
    "edge_sites": "put an edge cloud on every site or only the central one",
}


def _add_scenario_options(parser: argparse.ArgumentParser) -> None:
    cfg = ScenarioConfig()
    for name, text in _SCENARIO_HELP.items():
        default = getattr(cfg, name)
        parser.add_argument("--" + name.replace("_", "-"), type=type(default), default=default,
                            choices=("all", "center") if name == "edge_sites" else None,
                            help=f"{text} (default %(default)s)")


def _scenario(args, **fields) -> ScenarioConfig:
    """The ScenarioConfig of args' shared scenario options and fields."""
    return ScenarioConfig(**{name: getattr(args, name) for name in _SCENARIO_HELP}, **fields)


def _build_parser() -> argparse.ArgumentParser:
    cfg, budget = ScenarioConfig(), SearchBudget()
    spelled = {m: m.replace("_", "-") for m in METHOD_ORDER}
    parser = argparse.ArgumentParser(
        prog="vnfplan",
        description="Plan processing-chain deployments over a central cloud "
                    "plus edge clouds, minimizing total allocated rate "
                    "(GFLOPS/s) under per-function latency bounds (ms) and "
                    "cloud capacities. Distances are meters.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a scenario instance file")
    gen.add_argument("--out", required=True, help="output YAML path")
    gen.add_argument("--central-dist", type=float, default=cfg.central_dist,
                     help="central cloud distance in meters (default %(default)s)")
    gen.add_argument("--mix", type=int, default=cfg.mix_size,
                     help="number of chains in the service mix (default %(default)s)")
    _add_scenario_options(gen)

    solve = sub.add_parser("solve", help="place the chains of one instance")
    solve.add_argument("instance", help="instance YAML file")
    solve.add_argument("--method", default="optimal",
                       help=" | ".join(spelled[m] for m in METHODS) + " (default %(default)s)")
    solve.add_argument("--time-limit", type=float, default=budget.time_limit,
                       help="search time limit in seconds (default %(default)s)")
    solve.add_argument("--max-nodes", type=int, default=budget.max_nodes,
                       help="search node limit (default %(default)s)")
    solve.add_argument("--emit-lp", metavar="PATH",
                       help="also write the placement model in LP format")

    sweep = sub.add_parser("sweep", help="run a method/axis sweep to CSV")
    sweep.add_argument("--methods", required=True,
                       help="comma separated: " + ", ".join(spelled.values()))
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--axis-s", help="comma separated chain counts")
    sweep.add_argument("--axis-d0", help="comma separated central distances (m)")
    sweep.add_argument("--axis-ce", help="comma separated edge capacities")
    sweep.add_argument("--reps", type=int, default=10,
                       help="repetitions per point (default %(default)s)")
    _add_scenario_options(sweep)
    sweep.add_argument("--time-limit", type=float, default=budget.time_limit,
                       help="per-solve time limit in seconds (default %(default)s)")
    sweep.add_argument("--measure-runtime", action="store_true",
                       help="record wall-clock runtimes instead of 0.0 "
                            "(makes the CSV non-reproducible)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes, at most one per "
                            "point and per CPU (default %(default)s)")
    return parser


def _report_invalid(inst: Instance) -> bool:
    """Print each structural problem of inst to stderr; True if there is any."""
    problems = validate_instance(inst)
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    return bool(problems)


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _cmd_gen(args) -> int:
    inst = build_instance(_scenario(args, central_dist=args.central_dist, mix_size=args.mix))
    if _report_invalid(inst):
        return 2
    try:
        save_instance(args.out, inst, model=default_model(),
                      services=default_services())
    except OSError as exc:
        return _cannot_write(args.out, exc)
    print(f"wrote {args.out}: {len(inst.chains)} chains, "
          f"{len(inst.infra.clouds)} clouds")
    return 0


def _print_solution(inst: Instance, sol: Solution) -> None:
    print(f"objective: {sol.objective!r}")
    for k in inst.infra.cloud_ids():
        print(f"load cloud {k}: {sol.loads.get(k, 0.0)!r}")
    vectors = sol.assignment.vectors
    for chain in inst.chains:
        if chain.id in vectors:     # b_first's rejected chains have none
            print(f"chain {chain.id}: {' '.join(map(str, vectors[chain.id]))}")


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    if _report_invalid(inst):
        return 2
    method = method_name(args.method)
    budget = SearchBudget(max_nodes=args.max_nodes, time_limit=args.time_limit)
    table = RateTable(inst)
    if args.emit_lp:
        try:
            with open(args.emit_lp, "w", encoding="utf-8") as fh:
                fh.write(emit_lp_text(build_ilp(inst, table)))
        except OSError as exc:
            return _cannot_write(args.emit_lp, exc)
        print(f"wrote LP model to {args.emit_lp}")
    out = run_method(method, inst, table, budget)
    for line in out.events:
        print(line)
    print(f"status: {out.status}")
    if out.solution is not None:
        print(f"accepted: {out.accepted}/{len(inst.chains)}")
        for line in out.stats:
            print(line)
        _print_solution(inst, out.solution)
    for line in out.reasons:
        print(line)
    if out.accepted == len(inst.chains):
        return 0
    return 4 if out.status == "budget-exhausted" else 3


def _parse_axis(text: Optional[str], cast) -> Optional[list]:
    if text is None:
        return None
    values = [cast(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError("empty axis")
    return values


def _cmd_sweep(args, parser: argparse.ArgumentParser) -> int:
    methods = [tok for tok in args.methods.split(",") if tok.strip()]
    if not methods:
        parser.error("--methods must name at least one method")
    try:
        axes = {name: values for name, values in (
            ("S", _parse_axis(args.axis_s, int)), ("d0", _parse_axis(args.axis_d0, float)),
            ("Ce", _parse_axis(args.axis_ce, float))) if values}
    except ValueError as exc:
        parser.error(str(exc))
    # Before the sweep, so a bad path costs no solve.
    if os.path.isdir(args.out):
        return _cannot_write(args.out, IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR)))
    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):
        return _cannot_write(args.out, NotADirectoryError(f"no directory {out_dir}"))
    records = run_sweep(_scenario(args), methods, axes=axes, reps=args.reps,
                        budget=SearchBudget(time_limit=args.time_limit),
                        measure_runtime=args.measure_runtime, jobs=args.jobs)
    try:
        export_csv(records, args.out)
    except OSError as exc:
        return _cannot_write(args.out, exc)
    print(f"wrote {args.out}: {len(records)} records")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # OSError and ValueError (ConfigError, BruteForceCapError) are the
    # library's input errors; anything else is a bug and raises.
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_sweep(args, parser)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
