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
    lines = [_HEADER, "Minimize"]
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


_HEADER = "\\ vnfplan placement model"   # the first line of LP text
_NUM_RE = re.compile(r"([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")   # unsigned, ASCII
# A name: no whitespace, sign, '<', '>', '=', ':' or '\', and no digit or point first.
_NAME_RE = re.compile(r"[^\s\d.+\-<>=:\\][^\s+\-<>=:\\]*")
_SENSES = {sense: sense for sense in ("<=", ">=", "=")}
_PLUS, _MINUS = object(), object()
_WINDOW = 1 << 16   # characters of LP text that parse_lp_text splits at a time


class _TokenKind(dict):
    """Expression token -> float value, _PLUS, _MINUS, or for a name its unit
    term (name, 1.0), whose string every term of the name shares; filled once
    per distinct token.  terms maps each (name, coefficient) term to the one
    tuple of it that the parsed model holds.  Other tokens raise ValueError."""

    def __init__(self):
        super().__init__({"+": _PLUS, "-": _MINUS})
        self.terms: dict[tuple[str, float | str], tuple[str, float]] = {}

    def __missing__(self, tok):
        if _NUM_RE.fullmatch(tok):
            kind = _finite(float(tok))
        elif tok.isidentifier() or _NAME_RE.fullmatch(tok):
            kind = (tok, 1.0)
            self.terms[kind] = kind   # one tuple as key and value
        else:
            raise ValueError(tok)
        self[tok] = kind
        return kind


def _parse_terms(toks: list[str], kinds: _TokenKind) -> tuple[tuple[str, float], ...]:
    """The terms of an expression's tokens: 0 for none, or [-] [number] name
    followed by any number of (+|-) [number] name; ValueError otherwise."""
    if toks == ["0"]:
        return ()
    terms: list[tuple[str, float]] = []
    shared = kinds.terms
    sign, coef, named = 1.0, None, None   # named: None at the start, True when a sign is next
    for tok in toks:
        kind = kinds[tok]
        if type(kind) is tuple:
            if named:
                raise ValueError(tok)
            # Only a term with a coefficient or a minus sign costs a lookup.
            if coef is None and sign == 1.0:
                terms.append(kind)
            else:
                value = sign if coef is None else sign * coef
                term = (kind[0], value)
                # 0.0 and -0.0 are one key but two terms, so a zero is keyed by its text.
                terms.append(shared.setdefault(term if value else (kind[0], repr(value)), term))
            named = True
        elif kind is _PLUS or kind is _MINUS:
            if not named and (named is False or kind is _PLUS):   # a minus may open it
                raise ValueError(tok)
            sign, coef, named = 1.0 if kind is _PLUS else -1.0, None, False
        elif named or coef is not None:
            raise ValueError(tok)
        else:
            coef, named = kind, False
    if not named:
        raise ValueError(toks)
    return tuple(terms)


def _lines(text: str):
    """The lines of text.split("\\n"), split a window at a time so that no list
    of every line is held: a window ends at the first \\n from _WINDOW characters in."""
    start = 0
    while (end := text.find("\n", start + _WINDOW)) >= 0:
        yield from text[start:end].split("\n")
        start = end + 1
    yield from text[start:].split("\n")


@_collector_paused()
def parse_lp_text(text: str) -> IlpModel:
    """Parse LP text in the form emit_lp_text writes (README § Library) back
    into an IlpModel; raise ValueError naming the first line outside it."""
    if not text.endswith("\n"):
        last = text.rpartition("\n")[2]
        raise ValueError(f"no line break after the last line: {last!r}")
    constraints, fixed_zero, binaries = [], [], []
    kinds, rhs_values = _TokenKind(), {}   # rhs_values: right-hand-side text -> its number
    lines = _lines(text)   # the text ends with a line break, so each line up to End has a next
    where = "bad header line"
    try:
        if (raw := next(lines)) != _HEADER or (raw := next(lines)) != "Minimize":
            raise ValueError
        where = "bad objective line"
        toks = (raw := next(lines)).split(" ")
        objective = _parse_terms(toks[2:] if toks[:2] == ["", "obj:"] else [], kinds)   # [] raises
        if (raw := next(lines)) != "Subject To":
            raise ValueError
        where = "bad constraint line"
        for raw in lines:   # row, bound and binary lines start with a space
            if raw[:1] != " ":
                break
            # "", "name:", the expression's tokens, the sense and the right-hand side
            toks = raw.split(" ")
            name, rhs = toks[1][:-1], rhs_values.get(toks[-1])
            if toks[1][-1:] != ":" or not (name.isidentifier() or _NAME_RE.fullmatch(name)):
                raise ValueError
            if rhs is None:
                if not _NUM_RE.fullmatch(toks[-1].removeprefix("-")):
                    raise ValueError
                rhs = rhs_values[toks[-1]] = _finite(float(toks[-1]))
            constraints.append(LinearConstraint(name, _parse_terms(toks[2:-2], kinds),
                                                _SENSES[toks[-2]], rhs))
        # Bounds and Binaries lines are each one name, then tail; neither section is empty.
        for section, tail, names in (("Bounds", " = 0", fixed_zero), ("Binaries", "", binaries)):
            if raw == section:
                where = f"bad {section} line"
                while (raw := next(lines))[:1] == " ":
                    kind = kinds[raw[1:len(raw) - len(tail)]]
                    if type(kind) is not tuple or not raw.endswith(tail):
                        raise ValueError
                    names.append(kind[0])
                if not names:
                    raise ValueError
        if raw != "End":
            raise ValueError
        where = "line after End"   # End's line break leaves one empty line
        if (raw := next(lines)) or (raw := next(lines, None)) is not None:
            raise ValueError
    except (ValueError, KeyError):
        raise ValueError(f"{where}: {raw!r}") from None
    return IlpModel(objective=objective, constraints=tuple(constraints),
                    binaries=tuple(binaries), continuous=tuple(var for var, _ in objective),
                    fixed_zero=tuple(fixed_zero))
