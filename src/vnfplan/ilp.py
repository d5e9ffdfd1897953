"""Integer linear program construction and LP-format text interchange.

The program uses one placement binary x and one allocated-rate continuous
variable r per (chain, VNF, cloud).  Rate formulas are linearized as lower
bounds on r that only bind when both binaries of a split are set; since
penalties are non-negative and r is minimized, the minimal feasible r
reproduces the rate engine exactly.  Latency-infeasible splits become
pairwise cuts, infeasible head placements become fixed-to-zero bounds.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from .model import Instance
from .rates import INFEASIBLE, RateTable


@dataclass(frozen=True)
class LinearConstraint:
    name: str
    terms: tuple[tuple[str, float], ...]
    sense: str            # "<=", ">=" or "="
    rhs: float


@dataclass(frozen=True)
class IlpModel:
    objective: tuple[tuple[str, float], ...]   # minimized
    constraints: tuple[LinearConstraint, ...]
    binaries: tuple[str, ...]
    continuous: tuple[str, ...]                # lower bound 0, no upper bound
    fixed_zero: tuple[str, ...]                # binaries pinned to 0


def x_name(si: int, n: int, k: int) -> str:
    return f"x_s{si}_n{n}_k{k}"


def r_name(si: int, n: int, k: int) -> str:
    return f"r_s{si}_n{n}_k{k}"


def build_ilp(inst: Instance, table: RateTable | None = None) -> IlpModel:
    """Translate an instance into the placement ILP."""
    if table is None:
        table = RateTable(inst)
    clouds = inst.infra.cloud_ids()
    binaries: list[str] = []
    continuous: list[str] = []
    fixed_zero: list[str] = []
    objective: list[tuple[str, float]] = []
    onehot_rows: list[LinearConstraint] = []
    base_rows: list[LinearConstraint] = []
    penf_rows: list[LinearConstraint] = []
    penb_rows: list[LinearConstraint] = []
    cut_rows: list[LinearConstraint] = []

    for si, chain in enumerate(inst.chains):
        n_vnfs = len(chain.vnfs)
        for n in range(1, n_vnfs + 1):
            for k in clouds:
                binaries.append(x_name(si, n, k))
                continuous.append(r_name(si, n, k))
                objective.append((r_name(si, n, k), 1.0))
            onehot_rows.append(LinearConstraint(
                name=f"onehot_s{si}_n{n}",
                terms=tuple((x_name(si, n, k), 1.0) for k in clouds),
                sense="=",
                rhs=1.0,
            ))
            for k in clouds:
                base = table.first_rate(chain.id, k) if n == 1 \
                    else table.colocated(chain.id, n)
                if base == INFEASIBLE:
                    fixed_zero.append(x_name(si, n, k))
                    continue
                base_rows.append(LinearConstraint(
                    name=f"base_s{si}_n{n}_k{k}",
                    terms=((r_name(si, n, k), 1.0), (x_name(si, n, k), -base)),
                    sense=">=",
                    rhs=0.0,
                ))

        def head_ok(pos: int, k: int) -> bool:
            return pos != 1 or table.placement_feasible(chain.id, k)

        # Forward penalty rows: VNF n at k with its successor at j.
        for n in range(1, n_vnfs):
            for k in clouds:
                if not head_ok(n, k):
                    continue
                base = table.first_rate(chain.id, k) if n == 1 \
                    else table.colocated(chain.id, n)
                for j in clouds:
                    if j == k:
                        continue
                    pen = table.split_penalty_fwd(chain.id, n, k, j)
                    if pen == INFEASIBLE or pen <= 0.0:
                        continue
                    if table.split_penalty_bwd(chain.id, n + 1, j, k) == INFEASIBLE:
                        continue  # the pair is cut off entirely
                    penf_rows.append(LinearConstraint(
                        name=f"penf_s{si}_n{n}_k{k}_j{j}",
                        terms=((r_name(si, n, k), 1.0),
                               (x_name(si, n, k), -(base + pen)),
                               (x_name(si, n + 1, j), -pen)),
                        sense=">=",
                        rhs=-pen,
                    ))
        # Backward penalty rows: VNF n at k with its predecessor at j.
        for n in range(2, n_vnfs + 1):
            for k in clouds:
                base = table.colocated(chain.id, n)
                for j in clouds:
                    if j == k or not head_ok(n - 1, j):
                        continue
                    pen = table.split_penalty_bwd(chain.id, n, k, j)
                    if pen == INFEASIBLE or pen <= 0.0:
                        continue
                    if table.split_penalty_fwd(chain.id, n - 1, j, k) == INFEASIBLE:
                        continue
                    penb_rows.append(LinearConstraint(
                        name=f"penb_s{si}_n{n}_k{k}_j{j}",
                        terms=((r_name(si, n, k), 1.0),
                               (x_name(si, n, k), -(base + pen)),
                               (x_name(si, n - 1, j), -pen)),
                        sense=">=",
                        rhs=-pen,
                    ))
        # Cuts: adjacent pair placements no link can serve in time.
        for n in range(1, n_vnfs):
            for k in clouds:
                if not head_ok(n, k):
                    continue
                for j in clouds:
                    if j == k:
                        continue
                    dead = (table.split_penalty_fwd(chain.id, n, k, j) == INFEASIBLE
                            or table.split_penalty_bwd(chain.id, n + 1, j, k) == INFEASIBLE)
                    if dead:
                        cut_rows.append(LinearConstraint(
                            name=f"cut_s{si}_n{n}_k{k}_j{j}",
                            terms=((x_name(si, n, k), 1.0),
                                   (x_name(si, n + 1, j), 1.0)),
                            sense="<=",
                            rhs=1.0,
                        ))

    cap_rows = []
    for k in clouds:
        terms = []
        for si, chain in enumerate(inst.chains):
            for n in range(1, len(chain.vnfs) + 1):
                terms.append((r_name(si, n, k), 1.0))
        if terms:
            cap_rows.append(LinearConstraint(
                name=f"cap_k{k}",
                terms=tuple(terms),
                sense="<=",
                rhs=inst.infra.capacity(k),
            ))

    constraints = tuple(onehot_rows + cap_rows + base_rows
                        + penf_rows + penb_rows + cut_rows)
    return IlpModel(
        objective=tuple(objective),
        constraints=constraints,
        binaries=tuple(binaries),
        continuous=tuple(continuous),
        fixed_zero=tuple(fixed_zero),
    )


def _format_terms(terms) -> str:
    if not terms:
        return "0"
    parts = []
    for i, (var, coef) in enumerate(terms):
        if coef < 0:
            sign = "-"
        else:
            sign = "+" if i > 0 else ""
        mag = float(abs(coef))
        body = var if mag == 1.0 else f"{mag!r} {var}"
        parts.append(f"{sign} {body}".strip() if sign else body)
    return " ".join(parts)


def emit_lp_text(mdl: IlpModel) -> str:
    """Render the model as deterministic LP-format text."""
    lines = ["\\ vnfplan placement model", "Minimize"]
    lines.append(f" obj: {_format_terms(mdl.objective)}")
    lines.append("Subject To")
    for con in mdl.constraints:
        lines.append(f" {con.name}: {_format_terms(con.terms)} {con.sense} {float(con.rhs)!r}")
    if mdl.fixed_zero:
        lines.append("Bounds")
        for var in mdl.fixed_zero:
            lines.append(f" {var} = 0")
    if mdl.binaries:
        lines.append("Binaries")
        for var in mdl.binaries:
            lines.append(f" {var}")
    lines.append("End")
    return "\n".join(lines) + "\n"


_SENSE_RE = re.compile(r"(<=|>=|=)")
_NUM_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _parse_terms(text: str) -> tuple[tuple[tuple[str, float], ...], float]:
    """Parse a linear expression into terms and a constant offset."""
    tokens = text.replace("+", " + ").replace("-", " - ").split()
    # Re-join exponent signs split off scientific notation (e.g. 1e - 09).
    merged: list[str] = []
    for tok in tokens:
        if merged and merged[-1][-1:] in "eE" and _NUM_RE.match(merged[-1] + "1") \
                and tok in "+-":
            merged[-1] += tok
        elif merged and merged[-1][-1:] in "+-" and merged[-1][:-1] \
                and _NUM_RE.match(merged[-1] + "1"):
            merged[-1] += tok
        else:
            merged.append(tok)
    terms: list[tuple[str, float]] = []
    constant = 0.0
    sign = 1.0
    coef: float | None = None
    for tok in merged:
        if tok == "+":
            continue
        if tok == "-":
            sign = -sign
            continue
        if _NUM_RE.match(tok):
            if coef is not None:
                constant += sign * coef
                sign = 1.0
            coef = float(tok)
            continue
        value = sign * (coef if coef is not None else 1.0)
        terms.append((tok, value))
        sign = 1.0
        coef = None
    if coef is not None:
        constant += sign * coef
    return tuple(terms), constant


def parse_lp_text(text: str) -> IlpModel:
    """Parse LP text produced by emit_lp_text back into an IlpModel.

    Supports the subset of the LP format this module writes: a Minimize
    section, one constraint per line, simple fixed-to-zero bounds and a
    Binaries block.
    """
    objective: tuple[tuple[str, float], ...] = ()
    constraints: list[LinearConstraint] = []
    binaries: list[str] = []
    fixed_zero: list[str] = []
    section = None
    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].strip()
        if not line:
            continue
        lowered = line.lower()
        if lowered in ("minimize", "minimise"):
            section = "objective"
            continue
        if lowered == "maximize":
            raise ValueError("only minimization models are supported")
        if lowered in ("subject to", "s.t.", "st"):
            section = "constraints"
            continue
        if lowered == "bounds":
            section = "bounds"
            continue
        if lowered in ("binaries", "binary"):
            section = "binaries"
            continue
        if lowered == "end":
            section = None
            continue
        if section == "objective":
            body = line.split(":", 1)[1] if ":" in line else line
            objective, _ = _parse_terms(body)
        elif section == "constraints":
            if ":" not in line:
                raise ValueError(f"constraint line without a name: {raw!r}")
            name, body = line.split(":", 1)
            match = _SENSE_RE.search(body)
            if not match:
                raise ValueError(f"constraint line without a sense: {raw!r}")
            sense = match.group(1)
            lhs, rhs_text = body.split(sense, 1)
            terms, constant = _parse_terms(lhs)
            rhs = float(rhs_text) - constant
            constraints.append(LinearConstraint(
                name=name.strip(), terms=terms, sense=sense, rhs=rhs))
        elif section == "bounds":
            parts = line.split("=")
            if len(parts) != 2 or float(parts[1]) != 0.0:
                raise ValueError(f"unsupported bound line: {raw!r}")
            fixed_zero.append(parts[0].strip())
        elif section == "binaries":
            binaries.extend(line.split())
        else:
            raise ValueError(f"content outside any section: {raw!r}")
    continuous = tuple(var for var, _ in objective)
    return IlpModel(
        objective=objective,
        constraints=tuple(constraints),
        binaries=tuple(binaries),
        continuous=continuous,
        fixed_zero=tuple(fixed_zero),
    )
