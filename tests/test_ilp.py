import dataclasses
import gc
import itertools
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from util import (
    SWEEP_HIT_OPTIMA,
    _solve_via_scipy,
    assignment_to_binaries,
    eight_cloud_instance,
    min_completion,
    rand_instance,
    sweep_hit_instance,
)
from vnfplan import ilp
from vnfplan.ilp import (
    IlpModel,
    LinearConstraint,
    build_ilp,
    emit_lp_text,
    parse_lp_text,
    r_name,
    x_name,
)
from vnfplan.model import ChainRequest, CloudNode, Infrastructure, Instance, VnfSpec
from vnfplan.rates import INFEASIBLE, Assignment, RateTable, evaluate
from vnfplan.scenario import ScenarioConfig, build_instance
from vnfplan.solver import SearchBudget, solve_optimal


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


_ROW_FAMILIES = ("onehot", "cap", "base", "penf", "penb", "cut")


def _snk(name):
    """The (s, n, k) indices that a row or variable name carries, in order."""
    return tuple(int(v) for v in re.findall(r"_[snk](\d+)", name))


def test_rows_and_variables_follow_the_documented_order():
    """Rows come family by family in README § Library's order, each family
    once and sorted by (s, n, k) within, and variables in (s, n, k) order."""
    rng = random.Random(31)
    seen = set()
    for _ in range(50):
        mdl = build_ilp(rand_instance(rng, num_edges=rng.randint(1, 3)))
        runs = [(family, [_snk(c.name) for c in rows]) for family, rows in
                itertools.groupby(mdl.constraints, key=lambda c: c.name.split("_", 1)[0])]
        families = [family for family, _ in runs]
        assert families == [f for f in _ROW_FAMILIES if f in families]
        seen.update(families)
        for _, keys in runs:
            assert keys == sorted(keys)
        for names in (mdl.binaries, mdl.continuous, [v for v, _ in mdl.objective]):
            keys = [_snk(v) for v in names]
            assert keys == sorted(set(keys))
    assert seen == set(_ROW_FAMILIES)


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


def _lp(body):
    """LP text: emit_lp_text's first line, then body."""
    return "\\ vnfplan placement model\n" + body


def _rejects(text, message):
    """Parsing text raises ValueError with exactly message."""
    with pytest.raises(ValueError) as err:
        parse_lp_text(text)
    assert str(err.value) == message


def test_parse_rejects_maximize():
    _rejects(_lp("Maximize\n obj: x\nEnd\n"), "bad header line: 'Maximize'")


def test_parse_rejects_unnamed_constraint():
    _rejects(_lp("Minimize\n obj: x\nSubject To\n x >= 1\nEnd\n"),
             "bad constraint line: ' x >= 1'")


def test_parse_rejects_stray_content():
    _rejects("hello\nMinimize\n obj: x\nEnd\n", "bad header line: 'hello'")


@pytest.mark.parametrize("line", [" c1: x + y 3", " c1: x < 3"])
def test_parse_rejects_constraint_without_sense(line):
    _rejects(_lp(f"Minimize\n obj: x\nSubject To\n{line}\nEnd\n"),
             f"bad constraint line: {line!r}")


# Each line with what is wrong with it.
@pytest.mark.parametrize("line, why", [
    (" c1: x >= y", "bad right-hand side"),
    (" c1: x >= 1 >= 2", "bad right-hand side"),
    (" c1: x >=", "bad right-hand side"),
    # float() reads these, but the LP grammar has only ASCII decimal numbers.
    (" c1: x >= nan", "bad right-hand side"),
    (" c1: x <= inf", "bad right-hand side"),
    (" c1: x >= 1_000", "bad right-hand side"),
    (" c1: x >= \u0661", "bad right-hand side"),
    (" c1: x >= 1e999", "bad right-hand side"),
    (" c1: 1e999 x - 1e999 y >= 1", "out-of-range number"),
    (" c1: x < y <= 3", "a '<', '>' or '=' in '<'"),
    (" : x >= 1", "without a name"),
    (" x >= 1", "without a name"),
    # A row name is one name that Bounds and Binaries would take.
    (" a b: x >= 1", "constraint line with a bad name 'a b'"),
    (" 3: x >= 1", "constraint line with a bad name '3'"),
    (" c-1: x >= 1", "constraint line with a bad name 'c-1'"),
])
def test_parse_rejects_bad_constraint_line(line, why):
    with pytest.raises(ValueError) as err:
        parse_lp_text(_lp(f"Minimize\n obj: x\nSubject To\n{line}\nEnd\n"))
    assert str(err.value) == f"bad constraint line: {line!r}", why


def _objective_text(line):
    return _lp(f"Minimize\n{line}\nSubject To\n c1: x >= 1\nEnd\n")


@pytest.mark.parametrize("name", ["a b", "3", "c-1", ""])
def test_parse_rejects_a_bad_objective_name(name):
    """The objective is named obj, as emit_lp_text writes it."""
    line = f" {name}: x"
    _rejects(_objective_text(line), f"bad objective line: {line!r}")


def test_parse_rejects_an_objective_constant():
    """emit_lp_text never writes a constant; dropping one would change the
    objective value without a word."""
    _rejects(_objective_text(" obj: x + 3"), "bad objective line: ' obj: x + 3'")


def test_parse_rejects_a_sense_inside_the_objective():
    """Read as names, '>=' and 'x<=y' would make variables no LP reader has."""
    for line in (" obj: x >= y", " obj: x<=y"):
        _rejects(_objective_text(line), f"bad objective line: {line!r}")


def test_parse_rejects_an_out_of_range_objective_coefficient():
    """float() reads 1e999 as inf, which no LP number stands for."""
    _rejects(_objective_text(" obj: 1e999 x"), "bad objective line: ' obj: 1e999 x'")


@pytest.mark.parametrize("line, where", [(" obj: a: x", "objective"),
                                         (" c1: b: + x >= 1", "constraint")])
def test_parse_rejects_a_colon_inside_an_expression(line, where):
    """An LP name has no ':', so a: and b: are no variables."""
    text = (_objective_text(line) if where == "objective"
            else _lp(f"Minimize\n obj: x\nSubject To\n{line}\nEnd\n"))
    _rejects(text, f"bad {where} line: {line!r}")


def test_parse_rejects_a_hand_built_name_with_a_space():
    """emit_lp_text writes names as they are, so the variable x y comes out
    as two tokens, which parse as no variable rather than as x and y."""
    mdl = IlpModel(objective=(("x y", 1.0),), constraints=(), binaries=(),
                   continuous=("x y",), fixed_zero=())
    _rejects(emit_lp_text(mdl), "bad objective line: ' obj: x y'")


_EMITTED = emit_lp_text(IlpModel(
    objective=(("x", 1.0), ("y", 2.0)),
    constraints=(LinearConstraint("c1", (("x", 1.0), ("y", -1.0)), ">=", 1.0),),
    binaries=("x",), continuous=("x", "y"), fixed_zero=("y",)))


# Each form is LP that emit_lp_text does not write, and the line it spoils.
@pytest.mark.parametrize("old, new, line", [
    ("Minimize", "minimise", "minimise"),
    ("Minimize", "MINIMIZE", "MINIMIZE"),
    ("Subject To", "st", "st"),
    ("Subject To", "s.t.", "s.t."),
    ("Binaries", "Binary", "Binary"),
    (" c1: x - y >= 1.0", " c1: x - y >= 1.0 \\ a comment", " c1: x - y >= 1.0 \\ a comment"),
    ("Subject To", "Subject To\n", ""),
    (" c1: x - y >= 1.0", " c1: x + 3 >= 1.0", " c1: x + 3 >= 1.0"),
    (" obj: x + 2.0 y", " x + 2.0 y", " x + 2.0 y"),
    (" c1: x - y >= 1.0", " c1: - - x >= 1.0", " c1: - - x >= 1.0"),
    ("\n", "\r\n", "\\ vnfplan placement model\r"),
    # Glued signs and exponents, which no LP reader splits alike.
    (" c1: x - y >= 1.0", " c1: -3 x >= 1.0", " c1: -3 x >= 1.0"),
    (" c1: x - y >= 1.0", " c1: x-y >= 1.0", " c1: x-y >= 1.0"),
    (" obj: x + 2.0 y", " obj: 1e x", " obj: 1e x"),
    (" obj: x + 2.0 y", " obj: x + 1e-5x", " obj: x + 1e-5x"),
    ("End\n", "End", "End"),
    ("End\n", "End\n x\n", " x"),
    ("Bounds\n y = 0", "Bounds", "Binaries"),
], ids=["minimise", "MINIMIZE", "st", "s.t.", "Binary", "comment", "blank-line", "constant",
        "unnamed-objective", "repeated-sign", "crlf", "signed-number", "glued-sign",
        "dangling-exponent", "glued-exponent", "no-last-line-break", "line-after-End",
        "empty-section"])
def test_parse_rejects_a_form_emit_lp_text_does_not_write(old, new, line):
    text = _EMITTED.replace(old, new)
    assert text != _EMITTED and parse_lp_text(_EMITTED).binaries == ("x",)
    with pytest.raises(ValueError) as err:
        parse_lp_text(text)
    assert str(err.value).endswith(f": {line!r}")


def test_uncapped_cloud_round_trips_without_a_capacity_row():
    """An infinite capacity has no LP number, and its row binds nothing."""
    infra = Infrastructure(
        clouds=(CloudNode(0, math.inf), CloudNode(1, 50.0)),
        rrh_distances={"r0": {0: 0.0, 1: 1000.0}},
        cloud_distances={0: {0: 0.0, 1: 1000.0}, 1: {0: 1000.0, 1: 0.0}},
    )
    chain = ChainRequest(id="c0", service=None, rrh="r0", vnfs=(VnfSpec(1.0, 1.0, 1.0),))
    mdl = build_ilp(Instance(infra=infra, chains=(chain,)))
    assert [c.name for c in mdl.constraints if c.name.startswith("cap")] == ["cap_k1"]
    assert parse_lp_text(emit_lp_text(mdl)) == mdl


@pytest.mark.parametrize("text", [
    "Minimize\n obj: x\n + 2 y\nSubject To\n c1: x >= 1\nEnd\n",
    "Minimize\n obj: x\nSubject To\n c1: x >= 1\nMinimize\n + 2 y\nEnd\n",
])
def test_parse_rejects_a_second_objective_line(text):
    """The objective is one line; a second objective line used to replace
    the first one silently.  The error names the first line out of place."""
    with pytest.raises(ValueError) as err:
        parse_lp_text(_lp(text))
    assert str(err.value) in ("bad objective line: ' + 2 y'", "bad constraint line: 'Minimize'")


def test_linear_constraint_is_a_named_tuple_row():
    con = LinearConstraint(name="c1", terms=(("x", 1.0),), sense=">=", rhs=0.0)
    assert con == ("c1", (("x", 1.0),), ">=", 0.0)
    assert repr(con) == "LinearConstraint(name='c1', terms=(('x', 1.0),), sense='>=', rhs=0.0)"


@pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)])
def test_emit_formats_negative_zero(zeros):
    """A -0.0 coefficient prints as + 0.0 and a -0.0 right-hand side as -0.0,
    whichever zero comes first: 0.0 and -0.0 are equal dict keys, so a
    formatting memo must not hand one the other's text."""
    rows = tuple(LinearConstraint(f"c{i}", (("x", 1.0), ("y", zero)), ">=", zero)
                 for i, zero in enumerate(zeros))
    mdl = IlpModel(objective=(), constraints=rows, binaries=(), continuous=(), fixed_zero=())
    lines = emit_lp_text(mdl).splitlines()
    for i, zero in enumerate(zeros):
        assert f" c{i}: x + 0.0 y >= {zero!r}" in lines


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "huge-int"])
@pytest.mark.parametrize("where, row", [("objective", "obj"), ("coefficient", "c1"),
                                        ("rhs", "c1")])
def test_emit_rejects_a_non_finite_number(where, row, value):
    """LP text has no NaN or infinity: written out, nan x reads back as the
    two variables nan and x, and an LP reader takes inf for a number.  An
    int too large for a float cannot be written either."""
    obj, coef, rhs = (value if where == w else 2.0 for w in ("objective", "coefficient", "rhs"))
    mdl = IlpModel(objective=(("x", obj),),
                   constraints=(LinearConstraint("c0", (("x", 1.0),), ">=", 0.0),
                                LinearConstraint("c1", (("x", coef),), ">=", rhs)),
                   binaries=(), continuous=("x",), fixed_zero=())
    reason = ("int too large to convert to float" if isinstance(value, int)
              else f"non-finite number {re.escape(repr(value))}")
    with pytest.raises(ValueError, match=f"^cannot write row '{row}': {reason}$"):
        emit_lp_text(mdl)


@pytest.mark.parametrize("text, expected", [
    (_lp("Minimize\n obj: 0 x - 0 x\nSubject To\nEnd\n"),
     "IlpModel(objective=(('x', 0.0), ('x', -0.0)), constraints=(), binaries=(), "
     "continuous=('x', 'x'), fixed_zero=())"),
    (_lp("Minimize\n obj: 0 y\nSubject To\n c1: 0 y - 0 y >= 0\n"
         " c2: - 0 y + 0 y + 2 y <= -0.0\nEnd\n"),
     "IlpModel(objective=(('y', 0.0),), constraints=("
     "LinearConstraint(name='c1', terms=(('y', 0.0), ('y', -0.0)), sense='>=', rhs=0.0), "
     "LinearConstraint(name='c2', terms=(('y', -0.0), ('y', 0.0), ('y', 2.0)), sense='<=', "
     "rhs=-0.0)), binaries=(), continuous=('y',), fixed_zero=())"),
], ids=["objective", "rows"])
def test_parse_keeps_signed_zeros_apart(text, expected):
    """0 x and - 0 x are two terms, (x, 0.0) and (x, -0.0), whichever comes
    first: 0.0 and -0.0 are equal dict keys, so a memo of terms by value
    must not hand one the other's tuple."""
    assert repr(parse_lp_text(text)) == expected


def _all_terms(mdl):
    return [*mdl.objective, *(term for row in mdl.constraints for term in row.terms)]


@pytest.mark.parametrize("sites, size", [("all", 5), ("center", 4)])
def test_built_and_parsed_models_hold_one_tuple_per_distinct_term(sites, size):
    """Equal (variable, coefficient) terms of a model are one tuple, and
    each variable's name is one string, in the built model and in its
    parse alike."""
    mdl = build_ilp(build_instance(ScenarioConfig(edge_sites=sites, seed=0),
                                   d0_m=45_000.0, size=size))
    parsed = parse_lp_text(emit_lp_text(mdl))
    assert parsed == mdl
    for model in (mdl, parsed):
        terms = _all_terms(model)
        distinct = {(var, repr(coef)) for var, coef in terms}
        assert len(terms) > len(distinct)
        assert len({id(term) for term in terms}) == len(distinct)
        assert len({id(var) for var, _ in terms}) == len({var for var, _ in terms})


def test_parse_shares_a_term_however_its_coefficient_is_written():
    """x, 1 x and 1.0 x are one term, as are - x and - 1 x."""
    mdl = parse_lp_text(_lp("Minimize\n obj: x + 1 x + 1.0 x - x - 1 x + 2 x + 2.0 x\n"
                            "Subject To\nEnd\n"))
    assert mdl.objective == (("x", 1.0),) * 3 + (("x", -1.0),) * 2 + (("x", 2.0),) * 2
    assert [len({id(term) for term in mdl.objective[i:j]}) for i, j in
            ((0, 3), (3, 5), (5, 7), (0, 7))] == [1, 1, 1, 3]


def _with_pad_row(mdl, end):
    """mdl with a row of no terms put in at the last row line that starts
    100 characters or more before end, named so that its line break is at
    index end of the emitted text."""
    text = emit_lp_text(mdl)
    at = text.rindex("\n", 0, end - 100) + 1
    row = text.count("\n", 0, at) - 4   # header, Minimize, objective, Subject To
    pad = LinearConstraint("p" * (end - at - len(" : 0 >= 0.0")), (), ">=", 0.0)
    return dataclasses.replace(mdl, constraints=mdl.constraints[:row] + (pad,)
                               + mdl.constraints[row:])


def test_parse_reads_the_text_a_window_at_a_time():
    """A text of several windows parses to its model.  The first window's
    end is searched for from just past a line break, and the second
    window's from a line break."""
    mdl = build_ilp(build_instance(ScenarioConfig(edge_sites="all", seed=0),
                                   d0_m=45_000.0, size=9))
    window = ilp._WINDOW
    assert len(emit_lp_text(mdl)) > 5 * window
    mdl = _with_pad_row(mdl, window - 1)
    # A window ends at the first line break from window characters in.
    second = emit_lp_text(mdl).index("\n", window) + 1 + window
    mdl = _with_pad_row(mdl, second)
    text = emit_lp_text(mdl)
    assert text[window - 1] == "\n" != text[window] and text[second] == "\n"
    assert parse_lp_text(text) == mdl


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", " ", "\\", "\n", "\r", "\r\n", "\x0b", "\x0c",
                                 "\x1c", "\x1e", "\x85", "\u2028", "\u2029"]),
                max_size=30).map("".join),
       st.integers(1, 9))
@example("a\n", 1)
@example("a\n\nb", 1)
def test_windowed_lines_are_splitlines(text, window):
    """Split a window at a time, any text gives the lines of text.split("\\n"):
    only \\n ends a line."""
    saved, ilp._WINDOW = ilp._WINDOW, window
    try:
        lines = list(ilp._lines(text))
    finally:
        ilp._WINDOW = saved
    assert lines == text.split("\n")


def _unknown_rrh(inst):
    return dataclasses.replace(inst, chains=(dataclasses.replace(inst.chains[0], rrh="zz"),))


# A call that pauses the collector, and its error, if any.
PAUSED_CALLS = {
    "build": (lambda: build_ilp(_small_instance(4)), None),
    "build-invalid": (lambda: build_ilp(_unknown_rrh(_small_instance(4))), "unknown RRH zz"),
    "parse": (lambda: parse_lp_text(emit_lp_text(build_ilp(_small_instance(4)))), None),
    "parse-malformed": (lambda: parse_lp_text(emit_lp_text(build_ilp(_small_instance(4)))
                                              .replace(">=", "=>", 1)), "bad constraint line"),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("call", sorted(PAUSED_CALLS))
def test_build_and_parse_leave_the_collector_as_they_found_it(call, enabled):
    """build_ilp and parse_lp_text pause the cyclic collector and restore its
    state whether they return or raise.  With it off, collecting afterwards
    finds nothing: the model they build holds no reference cycle."""
    fn, error = PAUSED_CALLS[call]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        gc.collect()
        try:
            result = fn()
        except ValueError as exc:
            assert error is not None and error in str(exc)
        else:
            assert error is None
            assert isinstance(result, IlpModel) and result.constraints
            del result
        assert gc.isenabled() is enabled
        if not enabled:
            assert gc.collect() == 0
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("line", [" x = 1", " x = y", " x = 0 = 0", " x <= 0", " x >= 0",
                                  " 2 = 0", " + = 0", " x-y = 0", " 1e = 0", " = 0"])
def test_parse_rejects_unsupported_bound(line):
    _rejects(_lp(f"Minimize\n obj: x\nSubject To\nBounds\n{line}\nEnd\n"),
             f"bad Bounds line: {line!r}")


# Each line with what is wrong with it.
@pytest.mark.parametrize("line, why", [
    (" 2 + x-y 1e", "a number or sign '2'"),
    (" x +", "a number or sign '+'"),
    (" x 1.5", "a number or sign '1.5'"),
    (" x x-y", "a glued sign or exponent in 'x-y'"),
    (" x 1e", "a glued sign or exponent in '1e'"),
    (" x<=y", "a '<', '>' or '=' in 'x<=y'"),
])
def test_parse_rejects_a_binary_that_is_not_a_name(line, why):
    with pytest.raises(ValueError) as err:
        parse_lp_text(_lp(f"Minimize\n obj: x\nSubject To\nBinaries\n{line}\nEnd\n"))
    assert str(err.value) == f"bad Binaries line: {line!r}", why


def test_parse_shares_one_string_per_name_across_sections():
    mdl = parse_lp_text(_lp("Minimize\n obj: x + 2 y\nSubject To\nBounds\n x = 0\n"
                            "Binaries\n y\n x\nEnd\n"))
    assert mdl.binaries == ("y", "x") and mdl.fixed_zero == ("x",)
    assert mdl.fixed_zero[0] is mdl.binaries[1] is mdl.objective[0][0]


# LP names (README § Library): build_ilp's, and others with points, exponent
# letters, brackets, letters beyond ASCII, or a section's name, which a
# Binaries line can hold alone.
_NAMES = st.one_of(
    st.builds(lambda kind, s, n, k: f"{kind}_s{s}_n{n}_k{k}",
              st.sampled_from("xr"), st.integers(0, 40), st.integers(1, 8), st.integers(0, 8)),
    st.sampled_from(["a.b", "_x", "e5", "E", "x1e5", "E_5", "a[1]", "x!", "\u00e9t\u00e9",
                     "End", "Binaries", "st"]),
    st.from_regex(r"[^\s\d.+\-<>=:\\][^\s+\-<>=:\\]*", fullmatch=True),
)
_COEFS = st.one_of(
    st.sampled_from([1.0, -1.0, 0.0, -0.0, 3e-07, -3e-07, 1e+16, -1e+16, 2.5, -152.25]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_TERMS = st.lists(st.tuples(_NAMES, _COEFS), max_size=6).map(tuple)


@st.composite
def _ilp_models(draw):
    objective = draw(_TERMS)
    constraints = tuple(
        LinearConstraint(name=draw(_NAMES), terms=draw(_TERMS),
                         sense=draw(st.sampled_from(["<=", ">=", "="])),
                         rhs=draw(_COEFS))
        for _ in range(draw(st.integers(0, 6))))
    names = st.lists(_NAMES, max_size=4).map(tuple)
    return IlpModel(objective=objective, constraints=constraints,
                    binaries=draw(names),
                    continuous=tuple(var for var, _ in objective),
                    fixed_zero=draw(names))


@settings(max_examples=300, deadline=None)
@given(_ilp_models())
def test_lp_round_trip_on_random_models(mdl):
    """Signed and zero coefficients, exponents either way, negative
    right-hand sides, rows with no terms and any LP name all survive emit
    then parse."""
    text = emit_lp_text(mdl)
    assert parse_lp_text(text) == mdl
    assert emit_lp_text(parse_lp_text(text)) == text


def test_signed_variable_names_raise_instead_of_parsing_another_model():
    """A cloud id of -1, which validate_instance rejects, gives names such as
    x_s0_n1_k-1 that no LP reader takes for one name."""
    infra = Infrastructure(
        clouds=(CloudNode(0, 100.0), CloudNode(-1, 100.0)),
        rrh_distances={"r0": {0: 1000.0, -1: 0.0}},
        cloud_distances={0: {0: 0.0, -1: 5000.0}, -1: {0: 5000.0, -1: 0.0}},
    )
    chain = ChainRequest(id="c0", service=None, rrh="r0", vnfs=(VnfSpec(1.0, 1.0, 1.0),))
    inst = Instance(infra=infra, chains=(chain,))
    # A prebuilt table skips the validation that would reject the instance.
    text = emit_lp_text(build_ilp(inst, RateTable(inst)))
    assert "x_s0_n1_k-1" in text
    with pytest.raises(ValueError, match="^bad objective line: ' obj: r_s0_n1_k-1 "):
        parse_lp_text(text)


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


@pytest.mark.parametrize("rep", range(3))
def test_sweep_hit_optima_match_highs(rep):
    """HiGHS proves the optima that solve_optimal proves at the root on
    the sweep's S=8, d0 = 30 km, Ce = 2240 points."""
    inst = sweep_hit_instance(rep)
    res = solve_optimal(inst, budget=SearchBudget(max_nodes=20_000, time_limit=math.inf))
    assert res.status == "optimal"
    sci = _solve_via_scipy(build_ilp(inst))
    assert sci.status == 0, sci.message
    for value in (res.solution.objective, SWEEP_HIT_OPTIMA[rep]):
        assert math.isclose(sci.fun, value, rel_tol=1e-9)


def _pairwise_ilp(inst, table):
    """build_ilp's model with its penalty rows swapped for one row per split:
    r[n,k] >= (base + p) x[n,k] + p x[m,j] - p for each neighbour VNF m at
    each cloud j with a finite positive penalty p.  The reference that the
    staircase rows are measured against."""
    mdl = build_ilp(inst, table)
    clouds = inst.infra.cloud_ids()
    rows = [c for c in mdl.constraints if not c.name.startswith("pen")]
    for si, chain in enumerate(inst.chains):
        n_vnfs = len(chain.vnfs)
        row = table.row(chain.id)
        for n in range(1, n_vnfs + 1):
            nxt = row.children[n + 1] if n < n_vnfs else [()] * len(clouds)
            prev = row.children[n] if n > 1 else ()
            for p, k in enumerate(clouds):
                base = row.first[table.position[k]] if n == 1 else row.colo[n - 1]
                if n == 1 and base == INFEASIBLE:
                    continue
                splits = [(x_name(si, n + 1, clouds[i]), pen) for i, _, _, pen in nxt[p]]
                splits += [(x_name(si, n - 1, j), by_prev[p][2])
                           for j, by_prev in zip(clouds, prev)]
                rows += [LinearConstraint(
                    f"pair_{len(rows)}", ((r_name(si, n, k), 1.0), (x_name(si, n, k), -(base + pen)),
                                          (x, -pen)), ">=", -pen)
                    for x, pen in splits if 0.0 < pen < INFEASIBLE]
    return dataclasses.replace(mdl, constraints=tuple(rows))


def _relaxed_objective(mdl):
    res = _solve_via_scipy(mdl, relax=True)
    assert res.status in (0, 2), res.message
    return res.fun if res.status == 0 else math.inf


def test_staircase_relaxation_is_never_below_pairwise():
    """Each pairwise row is implied by the staircase row of its penalty, so
    the staircase LP relaxation can only be tighter."""
    rng = random.Random(7)
    cases = [rand_instance(rng, num_edges=2) for _ in range(8)]
    cases.append(eight_cloud_instance(7, 2240.0))
    bounds = []
    for inst in cases:
        table = RateTable(inst)
        bounds.append((_relaxed_objective(build_ilp(inst, table)),
                       _relaxed_objective(_pairwise_ilp(inst, table))))
    for stair, pair in bounds:
        assert stair >= pair or math.isclose(stair, pair, rel_tol=1e-9)
    assert sum(pair < math.inf for _, pair in bounds) >= 5
    # On 8 clouds it is strictly tighter: 5938.17 against 5937.33.
    assert bounds[-1][0] > bounds[-1][1] + 0.5


def test_staircase_rows_one_per_distinct_penalty():
    """Per (VNF, cloud, direction), one row per distinct finite positive
    penalty v, named by its rank from the smallest, that sums every
    neighbour binary whose penalty is at least v."""
    for inst in (eight_cloud_instance(3, 3000.0), _small_instance(5, num_edges=2)):
        table = RateTable(inst)
        mdl = build_ilp(inst, table)
        clouds = inst.infra.cloud_ids()
        rows = {c.name: c for c in mdl.constraints if c.name.startswith("pen")}
        expected = set()
        most = 0
        for si, chain in enumerate(inst.chains):
            n_vnfs = len(chain.vnfs)
            row = table.row(chain.id)
            for n in range(1, n_vnfs + 1):
                for p, k in enumerate(clouds):
                    base = row.first[table.position[k]] if n == 1 else row.colo[n - 1]
                    if base == INFEASIBLE:
                        continue
                    nxt = row.children[n + 1][p] if n < n_vnfs else ()
                    prev = row.children[n] if n > 1 else ()
                    for family, m, pens in (
                            ("penf", n + 1, [(clouds[i], pen) for i, _, _, pen in nxt]),
                            ("penb", n - 1, [(j, by_prev[p][2]) for j, by_prev in zip(clouds, prev)])):
                        values = sorted({pen for _, pen in pens if 0.0 < pen < INFEASIBLE})
                        most = max(most, len(values))
                        for rank, v in enumerate(values):
                            name = f"{family}_s{si}_n{n}_k{k}_v{rank}"
                            expected.add(name)
                            assert rows[name] == LinearConstraint(
                                name, ((r_name(si, n, k), 1.0), (x_name(si, n, k), -(base + v)),
                                       *((x_name(si, m, j), -v) for j, pen in pens
                                         if v <= pen < INFEASIBLE)), ">=", -v)
        assert set(rows) == expected
        assert most >= 2


# Proven by HiGHS on the staircase model (see test_highs_proves_an_eight_cloud_optimum).
EIGHT_CLOUD_OPTIMUM = 9209.824151504294


def test_highs_proves_an_eight_cloud_optimum():
    """HiGHS proves the 8-cloud S=11, Ce 3000 optimum, and the search's
    20k-node incumbent and best bound bracket it."""
    inst = eight_cloud_instance(11, 3000.0)
    sci = _solve_via_scipy(build_ilp(inst), time_limit=60.0, mip_rel_gap=0.0)
    assert sci.status == 0, sci.message
    assert math.isclose(sci.fun, EIGHT_CLOUD_OPTIMUM, rel_tol=1e-9)
    res = solve_optimal(inst, budget=SearchBudget(max_nodes=20_000, time_limit=math.inf))
    assert res.solution.objective >= EIGHT_CLOUD_OPTIMUM * (1 - 1e-9)
    assert res.best_bound <= EIGHT_CLOUD_OPTIMUM * (1 + 1e-9)


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


def test_no_split_rows_for_an_unreachable_head():
    # The head is 50 km from cloud 0, too far for its 0.2 ms bound, and the
    # 90 km link kills every split: only the head at cloud 1 gets a cut.
    vnfs = (VnfSpec(1.0, 0.2, 0.2), VnfSpec(1.0, 0.2, 0.2), VnfSpec(1.0, 0.2, 0.2))
    infra = Infrastructure(
        clouds=(CloudNode(0, 100.0), CloudNode(1, 100.0)),
        rrh_distances={"r0": {0: 50000.0, 1: 1000.0}},
        cloud_distances={0: {0: 0.0, 1: 90000.0}, 1: {0: 90000.0, 1: 0.0}},
    )
    chain = ChainRequest(id="c0", service=None, rrh="r0", vnfs=vnfs)
    mdl = build_ilp(Instance(infra=infra, chains=(chain,)))
    assert mdl.fixed_zero == (x_name(0, 1, 0),)
    split_rows = [c.name for c in mdl.constraints if c.name.startswith(("cut", "pen"))]
    assert split_rows == ["cut_s0_n1_k1_j0", "cut_s0_n2_k0_j1", "cut_s0_n2_k1_j0"]


def test_emit_is_deterministic():
    inst = _small_instance(21)
    mdl = build_ilp(inst)
    assert emit_lp_text(mdl) == emit_lp_text(build_ilp(inst))


# HiGHS's own LP-file reader, bundled by scipy as a private module.
LP_READER_CASES = [
    # (edge sites, S, read status, optimum of the search to match or None)
    ("center", 4, "kOk", True),
    ("center", 6, "kOk", True),
    # HiGHS warns and drops the 1.7e-10 to 4.6e-10 split penalties of
    # low-demand VNFs: real coefficients, too small for its reader.
    ("all", 7, "kWarning", False),
]


@pytest.mark.parametrize("sites, size, status, solve", LP_READER_CASES,
                         ids=[f"{c[0]}-S{c[1]}" for c in LP_READER_CASES])
def test_highs_reads_the_emitted_lp_text(tmp_path, sites, size, status, solve):
    try:
        from scipy.optimize._highspy._core import _Highs
    except ImportError:
        pytest.skip("scipy's bundled HiGHS reader is not importable")
    inst = build_instance(ScenarioConfig(edge_sites=sites, seed=0), d0_m=45_000.0, size=size)
    mdl = build_ilp(inst)
    path = tmp_path / "model.lp"
    path.write_text(emit_lp_text(mdl))
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.readModel(str(path)).name == status
    assert highs.getNumRow() == len(mdl.constraints)
    assert highs.getNumCol() == len(mdl.binaries) + len(mdl.continuous)
    if solve:
        highs.setOptionValue("mip_rel_gap", 0.0)
        assert highs.run().name == "kOk"
        assert highs.modelStatusToString(highs.getModelStatus()) == "Optimal"
        result = solve_optimal(inst)
        assert result.status == "optimal"
        assert highs.getObjectiveValue() == pytest.approx(result.solution.objective, rel=1e-9)
