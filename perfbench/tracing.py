"""Spans around the calls into each layer, recorded from outside the package.

``Tracer.install`` replaces every public function below at each name it is
imported under (``vnfplan.scenario.solve_optimal`` as well as
``vnfplan.solver.solve_optimal``) and wraps ``RateTable`` construction.  A
span holds name, start, end, parent span and operation id; spans stay in
memory until ``write`` dumps them.  A span's self time is its duration
minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("scenario", "config", "model", "rates", "heuristics", "solver", "ilp")


def _file_bytes(args, result):
    return {"config.yaml_bytes": os.path.getsize(args[0])}


def _b_first_counts(args, result):
    return {"heuristics.b_first_evaluations": result.evaluations,
            "heuristics.rejected": sum(not e.accepted for e in result.events)}


def _search_counts(args, result):
    return {"solver.nodes": result.nodes,
            "solver.budget_hits": int(result.status in ("feasible-incumbent",
                                                         "budget-exhausted"))}


# (layer, attribute, span name, counter of the work done by one call)
TRACED = (
    ("scenario", "build_instance", "build_instance", None),
    ("scenario", "run_sweep", "run_sweep", None),
    ("config", "save_instance", "save_instance", _file_bytes),
    ("config", "load_instance", "load_instance", None),
    ("model", "validate_instance", "validate_instance", None),
    ("rates", "RateTable", "rate_table", None),
    ("rates", "evaluate", "evaluate", None),
    ("heuristics", "b_first", "b_first", _b_first_counts),
    ("heuristics", "fixed_split", "fixed_split", None),
    ("heuristics", "fixed_service", "fixed_service", None),
    ("solver", "solve_optimal", "solve_optimal", _search_counts),
    ("solver", "max_accepted_chains", "max_accepted_chains", None),
    ("ilp", "build_ilp", "build_ilp", lambda args, mdl: {"ilp.rows": len(mdl.constraints)}),
    ("ilp", "emit_lp_text", "emit_lp_text", lambda args, text: {"ilp.lp_bytes": len(text)}),
    ("ilp", "parse_lp_text", "parse_lp_text", None),
)

# Per-operation metrics and their units, in output order.
METRICS = {
    "solver.solve_optimal_s": "s", "solver.nodes": "count",
    "solver.nodes_per_s": "1/s", "solver.budget_hits": "count",
    "solver.max_accepted_chains_s": "s", "solver.max_accepted_chains_calls": "count",
    "rates.rate_table_s": "s", "rates.rate_table_calls": "count",
    "rates.evaluate_s": "s", "rates.evaluate_calls": "count",
    "heuristics.b_first_s": "s", "heuristics.b_first_evaluations": "count",
    "heuristics.fixed_split_s": "s", "heuristics.fixed_service_s": "s",
    "heuristics.rejected": "count",
    "scenario.build_instance_s": "s", "scenario.setup_build_instance_s": "s",
    "scenario.run_sweep_s": "s",
    "config.save_instance_s": "s", "config.load_instance_s": "s",
    "config.yaml_bytes": "bytes", "model.validate_instance_s": "s",
    "ilp.build_ilp_s": "s", "ilp.emit_lp_text_s": "s", "ilp.parse_lp_text_s": "s",
    "ilp.lp_bytes": "bytes", "ilp.rows": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}
SETUP_OP = "setup"


def package_modules() -> dict:
    """The loaded vnfplan modules by name."""
    return {key: mod for key, mod in sys.modules.items()
            if key == "vnfplan" or key.startswith("vnfplan.")}


class Tracer:
    def __init__(self):
        self.active = False
        self.op = SETUP_OP
        self.spans: list[list] = []     # [name, start, end, parent index, op]
        self.stack: list[int] = []
        self.counts: dict = defaultdict(float)   # (op, metric) -> count

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append([name, perf_counter(), None,
                               self.stack[-1] if self.stack else None, self.op])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = perf_counter()
                self.stack.pop()
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[(self.op, key)] += value
            return result
        return traced

    def install(self, m) -> None:
        modules = package_modules().values()
        for layer, attr, span, counter in TRACED:
            name = f"{layer}.{span}"
            orig = getattr(getattr(m, layer), attr)
            if isinstance(orig, type):
                orig.__init__ = self._wrap(name, orig.__init__, counter)
                continue
            wrapped = self._wrap(name, orig, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def per_op(self) -> dict:
        """op id -> {metric: value} from span self times, call counts and counters."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        ops: dict = defaultdict(lambda: defaultdict(float))
        for idx, (name, start, end, _, op) in enumerate(self.spans):
            self_s = end - start - child[idx]
            ops[op][f"{name}_s"] += self_s
            ops[op][f"{name}_calls"] += 1
            ops[op][f"{name.split('.')[0]}.self_s"] += self_s
        for (op, key), value in self.counts.items():
            ops[op][key] += value
        for values in ops.values():
            search = values["solver.solve_optimal_s"]
            values["solver.nodes_per_s"] = values["solver.nodes"] / search if search else 0.0
        return ops

    def summary(self) -> dict:
        """Median over traced operations of every metric; set-up build time apart."""
        ops = self.per_op()
        timed = [values for op, values in ops.items() if op != SETUP_OP]
        out = {key: statistics.median(v.get(key, 0.0) for v in timed) if timed else 0.0
               for key in METRICS}
        out["scenario.setup_build_instance_s"] = \
            ops.get(SETUP_OP, {}).get("scenario.build_instance_s", 0.0)
        return out

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "op": op}) + "\n")
