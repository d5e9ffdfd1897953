"""Integer linear program construction and LP-format text interchange.

One placement binary x and one allocated-rate continuous variable r per
(chain, VNF, cloud).  Rates are lower bounds on r, met where r is least: a
base row per placement and, per (VNF, cloud, direction), one row per
distinct split penalty (see _staircase).  Latency-infeasible splits become
pairwise cuts, infeasible head placements fixed-to-zero bounds.
"""
from __future__ import annotations

import contextlib
import gc
import math
import re
from dataclasses import dataclass
from typing import NamedTuple
from .model import Instance
from .rates import INFEASIBLE, RateTable, rate_table


class LinearConstraint(NamedTuple):
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


def _staircase(name: str, r_term: tuple[str, float], x: str, base: float,
               pairs: list[tuple[float, str]],
               shared: dict[tuple[str, float], tuple[str, float]]) -> list[LinearConstraint]:
    """Penalty rows of one VNF at one cloud from (penalty, neighbour binary)
    pairs: per distinct finite positive penalty v, ranked from the smallest,
    r >= (base + v) x + v * (sum of neighbour binaries with v <= penalty) - v.
    Each term is taken from shared, the model's one tuple per term."""
    values = sorted({pen for pen, _ in pairs if 0.0 < pen < INFEASIBLE})
    rows = []
    for rank, v in enumerate(values):
        neg = -v
        term = (x, -(base + v))
        terms = [r_term, shared.setdefault(term, term)]
        for pen, nx in pairs:
            if v <= pen < INFEASIBLE:
                term = (nx, neg)
                terms.append(shared.setdefault(term, term))
        rows.append(LinearConstraint(f"{name}_v{rank}", tuple(terms), ">=", neg))
    return rows


@contextlib.contextmanager
def _collector_paused():
    """Run the body with the cyclic garbage collector off, restoring its state.

    build_ilp and parse_lp_text allocate a model of tens of thousands of
    tuples, whose allocation would trigger full collections that rescan it.
    Both build only acyclic tuples, lists, dicts, strings and floats, which
    reference counting frees, so the collector has nothing to find there.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def build_ilp(inst: Instance, table: RateTable | None = None) -> IlpModel:
    """Translate an instance into the placement ILP."""
    table = rate_table(inst, table)
    clouds = table.cloud_ids
    binaries: list[str] = []
    objective: list[tuple[str, float]] = []   # each rate's unit term, shared with its rows
    fixed_zero: list[str] = []
    cap_terms: list[list[tuple[str, float]]] = [[] for _ in clouds]
    onehot_rows: list[LinearConstraint] = []
    base_rows: list[LinearConstraint] = []
    penf_rows: list[LinearConstraint] = []
    penb_rows: list[LinearConstraint] = []
    cut_rows: list[LinearConstraint] = []
    # Each (variable, coefficient) term besides a unit one -> the model's one
    # tuple of it.  A binary's only zero coefficient can be its base row's,
    # so the equal keys 0.0 and -0.0 never meet here.
    shared: dict[tuple[str, float], tuple[str, float]] = {}

    for si, chain in enumerate(inst.chains):
        row = table.row(chain.id)
        n_vnfs = len(chain.vnfs)
        # xs[n][p]: the unit term of VNF n's binary at the p-th cloud; slot 0 unused.
        xs = [None] + [[(x_name(si, n, k), 1.0) for k in clouds] for n in range(1, n_vnfs + 1)]
        for n in range(1, n_vnfs + 1):
            binaries += [x for x, _ in xs[n]]
            onehot_rows.append(LinearConstraint(f"onehot_s{si}_n{n}", tuple(xs[n]), "=", 1.0))
            # Entry [p][i] of row.children[n + 1], for VNF n at the p-th cloud and
            # VNF n+1 at the i-th, holds the backward penalty on n+1 and the forward
            # penalty on n: both 0.0 when i == p, both INFEASIBLE (a cut) when no
            # link serves the pair in time.
            nxt = row.children[n + 1] if n < n_vnfs else [()] * len(clouds)
            prev = row.children[n] if n > 1 else ()
            for p, (k, x_term) in enumerate(zip(clouds, xs[n])):
                x, r_term = x_term[0], (r_name(si, n, k), 1.0)
                objective.append(r_term)
                cap_terms[p].append(r_term)
                base = row.first[p] if n == 1 else row.colo[n - 1]
                if base == INFEASIBLE:
                    fixed_zero.append(x)
                    if n == 1:
                        continue   # the head cannot sit at k at all
                else:
                    term = (x, -base)
                    base_rows.append(LinearConstraint(
                        f"base_s{si}_n{n}_k{k}", (r_term, shared.setdefault(term, term)),
                        ">=", 0.0))
                cut_rows += [LinearConstraint(f"cut_s{si}_n{n}_k{k}_j{clouds[i]}",
                                              (x_term, xs[n + 1][i]), "<=", 1.0)
                             for i, _, _, pen in nxt[p] if pen == INFEASIBLE]
                penf_rows += _staircase(f"penf_s{si}_n{n}_k{k}", r_term, x, base,
                                        [(pen, xs[n + 1][i][0]) for i, _, _, pen in nxt[p]],
                                        shared)
                # INFEASIBLE too when VNF n-1 is a head that cannot sit at the q-th cloud.
                penb_rows += _staircase(f"penb_s{si}_n{n}_k{k}", r_term, x, base,
                                        [(by_prev[p][2], xs[n - 1][q][0])
                                         for q, by_prev in enumerate(prev)], shared)

    # An uncapped cloud (capacity inf) gets no row: LP text has no infinite numbers.
    cap_rows = [LinearConstraint(f"cap_k{k}", tuple(terms), "<=", cap)
                for k, terms in zip(clouds, cap_terms)
                if terms and (cap := inst.infra.capacity(k)) < math.inf]
    return IlpModel(
        objective=tuple(objective),
        constraints=tuple(onehot_rows + cap_rows + base_rows
                          + penf_rows + penb_rows + cut_rows),
        binaries=tuple(binaries),
        continuous=tuple(r for r, _ in objective),
        fixed_zero=tuple(fixed_zero),
    )


def _finite(value):
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {value!r}")
    return value


class _CoefText(dict):
    """Coefficient -> its signed text before the variable ("+ 2.5 ", "- ").

    Built on first sight, so each distinct coefficient is checked and
    formatted once per emit_lp_text call.  Equal keys give equal text: 0.0
    and -0.0 both print as "+ 0.0", and an int prints like the float it
    equals.
    """

    def __missing__(self, coef):
        mag = float(abs(_finite(coef)))
        body = "" if mag == 1.0 else f"{mag!r} "
        text = f"- {body}" if coef < 0 else f"+ {body}"
        self[coef] = text
        return text


class _RhsText(dict):
    """Right-hand side -> its text, like _CoefText.  Only a nonzero value is
    stored: 0.0 and -0.0 are one key but print as "0.0" and "-0.0"."""

    def __missing__(self, rhs):
        text = repr(_finite(float(rhs)))
        if rhs:
            self[rhs] = text
        return text


def _format_terms(terms, coef_text: _CoefText) -> str:
    # A first term drops its plus sign.
    return " ".join([coef_text[c] + v for v, c in terms]).removeprefix("+ ") if terms else "0"


def emit_lp_text(mdl: IlpModel) -> str:
    """Render the model as deterministic LP-format text.

    Raises ValueError naming the row, or obj for the objective, that holds
    a NaN or infinite number, or an int too large for a float: LP text has
    no way to write one.
    """
    coef_text, rhs_text = _CoefText(), _RhsText()
    lines = ["\\ vnfplan placement model", "Minimize"]
    name = "obj"
    try:
        lines.append(f" obj: {_format_terms(mdl.objective, coef_text)}")
        lines.append("Subject To")
        for name, terms, sense, rhs in mdl.constraints:
            lines.append(f" {name}: {_format_terms(terms, coef_text)} {sense} {rhs_text[rhs]}")
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"cannot write row {name!r}: {exc}") from None
    if mdl.fixed_zero:
        lines.append("Bounds")
        for var in mdl.fixed_zero:
            lines.append(f" {var} = 0")
    if mdl.binaries:
        lines.append("Binaries")
        for var in mdl.binaries:
            lines.append(f" {var}")
    lines += ["End", ""]   # the text ends with a newline
    return "\n".join(lines)


_NUM_RE = re.compile(r"^[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?$")
# Section keywords, lowercased, and the section each one opens.
_SECTIONS = {
    "minimize": "objective", "minimise": "objective",
    "subject to": "constraints", "s.t.": "constraints", "st": "constraints",
    "bounds": "bounds",
    "binaries": "binaries", "binary": "binaries",
    "end": None,
}


# Token kinds besides a float (a number) and a tuple (a variable name).
_PLUS, _MINUS = object(), object()


class _TokenKind(dict):
    """Whitespace token -> float value, _PLUS, _MINUS, or for a name its
    unit term (name, 1.0), whose string every term of the name shares.

    Filled on first sight, so each distinct token is classified once per
    parse_lp_text call; names and coefficients repeat across rows.  terms
    maps each (name, coefficient) term to the one tuple of it that the
    parsed model holds.  A token outside the grammar is described in bad,
    so parse_lp_text can reject the line it first appears on: a sign
    inside a token (-3, x-y, k-1), a dangling exponent (1e) or a '<', '>'
    or '=' (x<=y), read as a name, and a number too large for a float,
    read as inf.
    """

    bad: str | None = None

    def __init__(self):
        super().__init__()
        self.terms: dict[tuple[str, float | str], tuple[str, float]] = {}

    def __missing__(self, tok):
        if tok == "+" or tok == "-":
            kind = _PLUS if tok == "+" else _MINUS
        elif tok[0] not in "+-" and _NUM_RE.match(tok):
            kind = float(tok)
            if kind == math.inf:
                self.bad = "an out-of-range number"
        else:
            kind = (tok, 1.0)
            self.terms[kind] = kind
            if "+" in tok or "-" in tok or tok[-1] in "eE" and _NUM_RE.match(tok + "1"):
                self.bad = f"a glued sign or exponent in {tok!r}"
            elif "<" in tok or ">" in tok or "=" in tok:
                self.bad = f"a '<', '>' or '=' in {tok!r}"
        self[tok] = kind
        return kind


def _parse_terms(text: str, kinds: _TokenKind) -> tuple[tuple[tuple[str, float], ...], float]:
    """Parse a linear expression of whitespace tokens into terms and a
    constant offset."""
    terms: list[tuple[str, float]] = []
    constant = 0.0
    sign = 1.0
    coef: float | None = None
    shared = kinds.terms
    for tok in text.split():
        kind = kinds[tok]
        if type(kind) is tuple:
            # A name, the commonest token.  Only a term with a coefficient or a
            # minus sign costs a lookup.
            if coef is None and sign == 1.0:
                terms.append(kind)
            else:
                value = sign if coef is None else sign * coef
                term = (kind[0], value)
                # 0.0 and -0.0 are one key but two terms, so a zero is keyed by its text.
                terms.append(shared.setdefault(term if value else (kind[0], repr(value)), term))
            sign = 1.0
            coef = None
        elif kind is _MINUS:
            sign = -sign
        elif kind is not _PLUS:
            if coef is not None:
                constant += sign * coef
                sign = 1.0
            coef = kind
    if coef is not None:
        constant += sign * coef
    return tuple(terms), constant


def _is_name(tok: str, kinds: _TokenKind) -> bool:
    """Whether Bounds and Binaries take tok as a name, as any identifier."""
    return tok.split() == [tok] and type(kinds[tok]) is tuple and not kinds.bad


_WINDOW = 1 << 16   # characters of LP text that parse_lp_text splits at a time
# The line breaks of str.splitlines, a \r\n pair as one.
_BREAK_RE = re.compile(r"\r\n|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")


def _lines(text: str):
    """The lines of text.splitlines(), split a window at a time so that no
    list of every line is held.  A window ends at the first line break at
    least _WINDOW characters in, so no line or \\r\\n pair is cut."""
    start = 0
    while start < len(text):
        brk = _BREAK_RE.search(text, start + _WINDOW)
        end = brk.end() if brk else len(text)
        yield from text[start:end].splitlines()
        start = end


@_collector_paused()
def parse_lp_text(text: str) -> IlpModel:
    """Parse LP text produced by emit_lp_text back into an IlpModel.

    Supports the subset of the LP format this module writes (one objective
    line, one named row per line, `name = 0` bounds, Binaries) and raises
    ValueError naming the line for anything else.
    """
    objective: tuple[tuple[str, float], ...] | None = None
    constraints: list[LinearConstraint] = []
    binaries: list[str] = []
    fixed_zero: list[str] = []
    kinds = _TokenKind()
    rhs_values: dict[str, float] = {}   # right-hand-side text -> its number
    section = None
    for raw in _lines(text):
        line = (raw.split("\\", 1)[0] if "\\" in raw else raw).strip()
        # A named row; a line without a name falls through to the error below.
        if section == "constraints" and (colon := line.find(":")) > 0:
            name = line[:colon].strip()
            if not name.isidentifier() and not _is_name(name, kinds):
                raise ValueError(f"constraint line with a bad name {name!r}: {raw!r}")
            # The row's body splits at its first sense: "<=", ">=" or "=".
            eq = line.find("=", colon + 1)
            if eq < 0:
                raise ValueError(f"constraint line without a sense: {raw!r}")
            start = eq - 1 if line[eq - 1] in "<>" else eq
            terms, constant = _parse_terms(line[colon + 1:start], kinds)
            if kinds.bad:
                raise ValueError(f"constraint line with {kinds.bad}: {raw!r}")
            rhs_text = line[eq + 1:]
            rhs = rhs_values.get(rhs_text)
            if rhs is None:
                rhs = float(rhs_text) if _NUM_RE.match(rhs_text.strip()) else math.nan
                if not math.isfinite(rhs):
                    raise ValueError(f"constraint line with a bad right-hand side: {raw!r}")
                rhs_values[rhs_text] = rhs
            constraints.append(LinearConstraint(name, terms, line[start:eq + 1], rhs - constant))
            continue
        if not line:
            continue
        lowered = line.lower()
        if lowered in _SECTIONS:
            section = _SECTIONS[lowered]
        elif lowered == "maximize":
            raise ValueError("only minimization models are supported")
        elif section == "constraints":
            raise ValueError(f"constraint line without a name: {raw!r}")
        elif section == "objective":
            if objective is not None:
                raise ValueError(f"more than one objective line: {raw!r}")
            name, colon, body = line.partition(":")
            if colon and not _is_name(name := name.strip(), kinds):
                raise ValueError(f"objective line with a bad name {name!r}: {raw!r}")
            objective, constant = _parse_terms(body if colon else line, kinds)
            if kinds.bad:
                raise ValueError(f"objective line with {kinds.bad}: {raw!r}")
            if constant:
                raise ValueError(f"objective line with a constant: {raw!r}")
        elif section == "bounds":
            # Only `<one name> = <number>` with the number 0.
            name, eq, value = (part.strip() for part in line.partition("="))
            if not (eq and _is_name(name, kinds) and _NUM_RE.match(value)) or float(value):
                raise ValueError(f"unsupported bound line: {raw!r}")
            fixed_zero.append(kinds[name][0])
        elif section == "binaries":
            for tok in line.split():
                kind = kinds[tok]
                if type(kind) is not tuple:
                    raise ValueError(f"binaries line with a number or sign {tok!r}: {raw!r}")
                if kinds.bad:
                    raise ValueError(f"binaries line with {kinds.bad}: {raw!r}")
                binaries.append(kind[0])
        else:
            raise ValueError(f"content outside any section: {raw!r}")
    objective = objective or ()
    return IlpModel(
        objective=objective,
        constraints=tuple(constraints),
        binaries=tuple(binaries),
        continuous=tuple(var for var, _ in objective),
        fixed_zero=tuple(fixed_zero),
    )
