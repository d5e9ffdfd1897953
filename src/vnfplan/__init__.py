"""Placement planning for processing chains over a central cloud plus
edge clouds: exact search, heuristics, scenario sweeps and a CLI.

The package exports what the README and the CLI commands use, with the
types and exceptions those functions take, return or raise.  Everything
else (RateTable, the rate formulas, the method registry, ...) stays in
its submodule."""

from .config import load_instance, save_instance
from .heuristics import HeuristicResult, b_first, fixed_service, fixed_split
from .ilp import IlpModel, build_ilp, emit_lp_text, parse_lp_text
from .model import ConfigError, Instance, validate_instance
from .rates import Assignment, Solution, evaluate
from .scenario import ScenarioConfig, SweepRecord, build_instance, export_csv, run_sweep
from .solver import (
    BruteForceCapError,
    SearchBudget,
    SolveResult,
    brute_force,
    solve_optimal,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BruteForceCapError",
    "ConfigError",
    "HeuristicResult",
    "IlpModel",
    "Instance",
    "ScenarioConfig",
    "SearchBudget",
    "SolveResult",
    "Solution",
    "SweepRecord",
    "b_first",
    "brute_force",
    "build_ilp",
    "build_instance",
    "emit_lp_text",
    "evaluate",
    "export_csv",
    "fixed_service",
    "fixed_split",
    "load_instance",
    "parse_lp_text",
    "run_sweep",
    "save_instance",
    "solve_optimal",
    "validate_instance",
]
