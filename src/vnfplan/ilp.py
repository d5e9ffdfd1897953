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
    cap_terms: list[list[tuple[str, float]]] = [[] for _ in clouds]
    onehot_rows: list[LinearConstraint] = []
    base_rows: list[LinearConstraint] = []
    penf_rows: list[LinearConstraint] = []
    penb_rows: list[LinearConstraint] = []
    cut_rows: list[LinearConstraint] = []

    for si, chain in enumerate(inst.chains):
        cid = chain.id
        n_vnfs = len(chain.vnfs)
        # xs[n][i] and rs[n][i] are the unit terms of VNF n at the i-th cloud,
        # bases[n][i] its base rate there; slot 0 is unused.
        xs: list = [None]
        rs: list = [None]
        bases: list = [None]
        for n in range(1, n_vnfs + 1):
            x_row = [(x_name(si, n, k), 1.0) for k in clouds]
            r_row = [(r_name(si, n, k), 1.0) for k in clouds]
            base_row = [table.first_rate(cid, k) for k in clouds] if n == 1 \
                else [table.colocated(cid, n)] * len(clouds)
            xs.append(x_row)
            rs.append(r_row)
            bases.append(base_row)
            binaries += [x for x, _ in x_row]
            continuous += [r for r, _ in r_row]
            objective += r_row
            for terms, r_term in zip(cap_terms, r_row):
                terms.append(r_term)
            onehot_rows.append(LinearConstraint(
                name=f"onehot_s{si}_n{n}", terms=tuple(x_row), sense="=", rhs=1.0))
            for k, (x, _), r_term, base in zip(clouds, x_row, r_row, base_row):
                if base == INFEASIBLE:
                    fixed_zero.append(x)
                    continue
                base_rows.append(LinearConstraint(
                    name=f"base_s{si}_n{n}_k{k}",
                    terms=(r_term, (x, -base)),
                    sense=">=",
                    rhs=0.0,
                ))

        # The split penalties come from the branch and bound's child lists:
        # entry [p][i] of table.children(cid, n + 1) holds, for VNF n at the
        # p-th cloud and VNF n+1 at the i-th, the backward penalty on n+1 and
        # the forward penalty on n, both INFEASIBLE when either link breaks
        # its bound, and both 0.0 when i == p.
        for n in range(1, n_vnfs):
            nxt = table.children(cid, n + 1)
            for p, k in enumerate(clouds):
                base = bases[n][p]
                if n == 1 and base == INFEASIBLE:
                    continue   # the head cannot sit at k at all
                r_term, x = rs[n][p], xs[n][p][0]
                for i, _, _, pen in nxt[p]:
                    j = clouds[i]
                    if pen == INFEASIBLE:
                        # Cut: no link serves VNF n at k and VNF n+1 at j in time.
                        cut_rows.append(LinearConstraint(
                            name=f"cut_s{si}_n{n}_k{k}_j{j}",
                            terms=(xs[n][p], xs[n + 1][i]),
                            sense="<=",
                            rhs=1.0,
                        ))
                    elif pen > 0.0:
                        # Forward penalty row: VNF n at k, its successor at j.
                        penf_rows.append(LinearConstraint(
                            name=f"penf_s{si}_n{n}_k{k}_j{j}",
                            terms=(r_term, (x, -(base + pen)), (xs[n + 1][i][0], -pen)),
                            sense=">=",
                            rhs=-pen,
                        ))
        # Backward penalty rows: VNF n at k with its predecessor at j.
        for n in range(2, n_vnfs + 1):
            prev = table.children(cid, n)
            base = bases[n][0]
            for i, k in enumerate(clouds):
                r_term, x = rs[n][i], xs[n][i][0]
                for p, j in enumerate(clouds):
                    # INFEASIBLE too when VNF n-1 is a head that cannot sit at j.
                    pen = prev[p][i][2]
                    if pen == INFEASIBLE or pen <= 0.0:
                        continue
                    penb_rows.append(LinearConstraint(
                        name=f"penb_s{si}_n{n}_k{k}_j{j}",
                        terms=(r_term, (x, -(base + pen)), (xs[n - 1][p][0], -pen)),
                        sense=">=",
                        rhs=-pen,
                    ))

    cap_rows = [
        LinearConstraint(name=f"cap_k{k}", terms=tuple(terms), sense="<=",
                         rhs=inst.infra.capacity(k))
        for k, terms in zip(clouds, cap_terms) if terms
    ]
    constraints = tuple(onehot_rows + cap_rows + base_rows
                        + penf_rows + penb_rows + cut_rows)
    return IlpModel(
        objective=tuple(objective),
        constraints=constraints,
        binaries=tuple(binaries),
        continuous=tuple(continuous),
        fixed_zero=tuple(fixed_zero),
    )


class _CoefText(dict):
    """Coefficient -> (text before its variable as the first term, otherwise).

    Built on first sight, so each distinct coefficient is formatted once per
    emit_lp_text call.  Equal keys give equal text: 0.0 and -0.0 both print
    as "+ 0.0", and an int prints like the float it equals.
    """

    def __missing__(self, coef):
        mag = float(abs(coef))
        body = "" if mag == 1.0 else f"{mag!r} "
        text = (f"- {body}", f"- {body}") if coef < 0 else (body, f"+ {body}")
        self[coef] = text
        return text


def _format_terms(terms, coef_text: _CoefText) -> str:
    if not terms:
        return "0"
    (var, coef), rest = terms[0], terms[1:]
    return " ".join([coef_text[coef][0] + var,
                     *[coef_text[c][1] + v for v, c in rest]])


def emit_lp_text(mdl: IlpModel) -> str:
    """Render the model as deterministic LP-format text."""
    coef_text = _CoefText()
    lines = ["\\ vnfplan placement model", "Minimize"]
    lines.append(f" obj: {_format_terms(mdl.objective, coef_text)}")
    lines.append("Subject To")
    for con in mdl.constraints:
        lines.append(f" {con.name}: {_format_terms(con.terms, coef_text)} "
                     f"{con.sense} {float(con.rhs)!r}")
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
_NAME_RE = re.compile(r"^[^\s<>=]+$")
# Section keywords, lowercased, and the section each one opens.
_SECTIONS = {
    "minimize": "objective", "minimise": "objective",
    "subject to": "constraints", "s.t.": "constraints", "st": "constraints",
    "bounds": "bounds",
    "binaries": "binaries", "binary": "binaries",
    "end": None,
}


class _TokenValue(dict):
    """Token -> its float value, or None for a variable name.

    Filled on first sight, so each distinct token is matched once per
    parse_lp_text call; names and coefficients repeat across many rows.
    """

    def __missing__(self, tok):
        value = float(tok) if _NUM_RE.match(tok) else None
        self[tok] = value
        return value


def _parse_terms(text: str, token_value: _TokenValue
                 ) -> tuple[tuple[tuple[str, float], ...], float]:
    """Parse a linear expression into terms and a constant offset."""
    tokens = text.replace("+", " + ").replace("-", " - ").split()
    if "e" in text or "E" in text:
        # Re-join exponent signs split off scientific notation (e.g. 1e - 09).
        # Only a token ending in e or E starts a merge.
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
        tokens = merged
    terms: list[tuple[str, float]] = []
    constant = 0.0
    sign = 1.0
    coef: float | None = None
    for tok in tokens:
        if tok == "+":
            continue
        if tok == "-":
            sign = -sign
            continue
        value = token_value[tok]
        if value is not None:
            if coef is not None:
                constant += sign * coef
                sign = 1.0
            coef = value
            continue
        terms.append((tok, sign * (coef if coef is not None else 1.0)))
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
    token_value = _TokenValue()
    section = None
    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].strip()
        if not line:
            continue
        lowered = line.lower()
        if lowered in _SECTIONS:
            section = _SECTIONS[lowered]
            continue
        if lowered == "maximize":
            raise ValueError("only minimization models are supported")
        if section == "constraints":
            name, colon, body = line.partition(":")
            if not colon:
                raise ValueError(f"constraint line without a name: {raw!r}")
            # The leftmost sense is where body.split(sense, 1) would cut.
            match = _SENSE_RE.search(body)
            if not match:
                raise ValueError(f"constraint line without a sense: {raw!r}")
            terms, constant = _parse_terms(body[:match.start()], token_value)
            rhs = float(body[match.end():]) - constant
            constraints.append(LinearConstraint(
                name=name.strip(), terms=terms, sense=match.group(1), rhs=rhs))
        elif section == "objective":
            body = line.split(":", 1)[1] if ":" in line else line
            objective, _ = _parse_terms(body, token_value)
        elif section == "bounds":
            # Only `<one name> = <number>` with the number 0.
            name, eq, value = (part.strip() for part in line.partition("="))
            if not (eq and _NAME_RE.match(name) and _NUM_RE.match(value)) \
                    or float(value) != 0.0:
                raise ValueError(f"unsupported bound line: {raw!r}")
            fixed_zero.append(name)
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
